(** Bit-parallel logic simulation: 64 independent patterns per step.

    Lane [i] of every [int64] word is pattern [i].  Flip-flops hold state
    across {!step} calls; {!reset} clears them to 0.  LUT slots evaluate
    their programmed configuration; simulating a netlist containing an
    unprogrammed LUT raises unless an override configuration is supplied
    at creation — this is exactly the information asymmetry the defence
    creates, and the attack code exploits the same interface. *)

type t

val create :
  ?configs:(Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list ->
  Sttc_netlist.Netlist.t ->
  t
(** [configs] override/supply LUT configurations without rewriting the
    netlist.  Raises [Invalid_argument] if any LUT remains unconfigured or
    an override has the wrong arity. *)

val reset : t -> unit
(** All flip-flops to 0 in every lane. *)

val set_state : t -> int64 array -> unit
(** Flip-flop values in [Netlist.dffs] order. *)

val state : t -> int64 array

val step : t -> int64 array -> int64 array
(** [step t pis] evaluates one clock cycle: combinational logic under the
    given primary-input lanes (in [Netlist.pis] order), returns the
    primary-output lanes (in [Netlist.outputs] order), then updates the
    flip-flops.  Raises [Invalid_argument] on a PI-count mismatch. *)

val eval_comb : t -> int64 array -> int64 array
(** Like {!step} but without the state update (outputs of the current
    combinational evaluation). *)

val node_values : t -> int64 array
(** Per-node values of the latest evaluation (after {!step} or
    {!eval_comb}). *)
