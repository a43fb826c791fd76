(** The one netlist-to-CNF (Tseitin) encoder: the formula substrate of
    the SAT attacks on a foundry view with {e symbolic} LUT
    configurations, and of the {!Equiv.check_sat} sign-off miter.

    Each unprogrammed LUT contributes [2^arity] key variables, one per
    truth-table row; programmed LUTs and CMOS gates encode as fixed
    logic. *)

type keyed = {
  cnf : Sttc_logic.Cnf.t;
  inputs : (string * Sttc_logic.Cnf.lit) list;
      (** PI and flip-flop (state) literals, by name *)
  outputs : (string * Sttc_logic.Cnf.lit) list;
      (** PO literals then flip-flop D-input literals, by name
          (matching [Oracle.output_names] order) *)
  keys : (Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list;
      (** per-LUT key literals, row 0 first *)
  node_lits : Sttc_logic.Cnf.lit array;
      (** the literal carrying each node's signal, indexed by node id —
          lets callers constrain internal nets (targeted ATPG) *)
}

val encode :
  ?cnf:Sttc_logic.Cnf.t ->
  ?share_inputs:(string * Sttc_logic.Cnf.lit) list ->
  ?share_keys:(Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list ->
  Sttc_netlist.Netlist.t ->
  keyed
(** [encode nl] builds a fresh formula (or extends [cnf]).
    [share_inputs] reuses existing literals for the named inputs (to tie
    two copies to the same input); [share_keys] likewise reuses key
    literals. *)

val key_of_model :
  keyed -> bool array -> (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list
(** Extract a candidate bitstream from a SAT model. *)

type unrolled = {
  u_cnf : Sttc_logic.Cnf.t;
  u_keys : (Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list;
  frame_pis : (string * Sttc_logic.Cnf.lit) list array;
      (** primary-input literals, one association list per frame *)
  frame_pos : (string * Sttc_logic.Cnf.lit) list array;
      (** primary-output literals per frame (no state outputs: the
          scan-disabled attacker cannot observe flip-flops) *)
}

val encode_unrolled :
  ?cnf:Sttc_logic.Cnf.t ->
  ?share_keys:(Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list ->
  ?share_frame_pis:(string * Sttc_logic.Cnf.lit) list array ->
  frames:int ->
  Sttc_netlist.Netlist.t ->
  unrolled
(** Time-unrolled encoding for the sequential (scan-disabled) SAT attack:
    flip-flops start at the reset state (0) and each frame's next state
    feeds the following frame; LUT keys are shared across frames.
    [share_frame_pis] ties the per-frame inputs to an existing copy (for
    miters).  Raises [Invalid_argument] when [frames < 1]. *)
