(** Three-valued simulation of hybrids with unknown LUT contents.

    Every unprogrammed LUT outputs X; the simulation shows how far the
    unknowns propagate and which observation points (primary outputs,
    flip-flop inputs) they reach.  The truth-table-extraction attack uses
    this to decide when a missing gate's output is observable, and the
    defender can use it to confirm that the missing gates actually shield
    the circuit's behaviour. *)

type values = Sttc_logic.Ternary.v array
(** Indexed by node id. *)

val eval_comb :
  ?state:Sttc_logic.Ternary.v array ->
  Sttc_netlist.Netlist.t ->
  Sttc_logic.Ternary.v array ->
  values
(** [eval_comb nl pis] evaluates the combinational logic under the given
    PI values (in [Netlist.pis] order).  [state] gives flip-flop outputs
    (default all X).  Programmed LUTs evaluate their table (with
    unknown-input resolution); unprogrammed LUTs yield X whenever their
    output is not forced. *)

val outputs : Sttc_netlist.Netlist.t -> values -> Sttc_logic.Ternary.v array
(** Primary-output values (in [Netlist.outputs] order) from a {!values}. *)
