(** SAT-backed semantic prover: one incremental solver per analysis run.

    The netlist is lowered once to a {e dual-rail ternary} CNF — rails
    [(t, f)] per net with [not (t && f)]; [(0,0)] is X — so the
    three-valued semantics of the testing attack (unresolved missing
    gates read as X, sources are controllable and known) becomes pure
    assumption setting against a single persistent
    {!Sttc_logic.Sat.Solver}.  A second copy of the logic downstream of
    the missing gates, sharing sources, forms the justify/propagate
    miter of Eq. 1.  Queries that must add clauses (equivalence) guard
    them behind an activation literal and retire it afterwards.  Every
    query runs under the conflict budget: lint can be wrong about
    nothing and late about nothing — budget exhaustion is a distinct
    {!answer}, never silence or a false claim. *)

type t

(** Three-valued query outcome.  [Cutoff] means the conflict budget was
    exhausted: no claim either way. *)
type answer = Holds | Refuted | Cutoff

val create : ?budget:int -> Sttc_netlist.Netlist.t -> t
(** Lower the netlist and start the solver.  [budget] (default 50_000)
    bounds the conflicts of each individual query. *)

val set_label : t -> string -> unit
(** Metric label: subsequent queries record under
    [lint.sem.<label>.solver_seconds] / [.solver_conflicts]. *)

val value_reachable :
  t -> Sttc_netlist.Netlist.node_id -> Sttc_logic.Ternary.v -> answer
(** Can the net take the value for {e some} input, state and
    missing-gate behaviour?  [Refuted] on the complement values proves a
    constant net. *)

val justify_row :
  t -> Sttc_netlist.Netlist.node_id -> row:int -> exact:bool -> answer
(** With every missing gate X: can an input/state pattern drive the
    LUT's fanins to the row ([exact]) — or merely remain three-valued
    compatible with it ([exact:false])?  A row that is not even
    compatible is unreachable and needs no test pattern. *)

val toggle_observable :
  t -> Sttc_netlist.Netlist.node_id -> others:[ `X | `Free ] -> answer
(** Miter query: forcing the LUT low in copy A and high in copy B,
    under shared inputs/state, can some primary output or flip-flop D
    input take {e known, opposite} values?  [`X] holds the other
    missing gates at X (Eq. 1 propagation: no other gate may be needed);
    [`Free] lets the solver pick any behaviour for them, so [Refuted]
    proves the LUT's configuration influences no observation point under
    any circumstances (keyspace collapse). *)

val equivalent :
  t -> Sttc_netlist.Netlist.node_id -> Sttc_netlist.Netlist.node_id -> answer
(** [Holds] proves the two nets equal on every input and state.  Only
    sound for nets that are not downstream of a missing gate (the caller
    filters on {!Dataflow.tainted}). *)

val budget : t -> int
val queries : t -> int
val cutoffs : t -> int
(** Queries that exhausted the budget so far. *)

val conflicts : t -> int
(** Solver conflicts spent by this prover's queries. *)

val seconds : t -> float

val downstream : t -> Sttc_netlist.Netlist.node_id -> bool
(** Combinationally downstream of a missing gate: two-valued claims
    ({!value_reachable}-based constancy, {!equivalent}) are not sound
    there. *)
