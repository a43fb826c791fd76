(** Signal probability and switching-activity estimation.

    Signal probabilities propagate from the primary inputs (default 0.5)
    through exact per-gate truth-table evaluation under an input-
    independence assumption; sequential feedback is resolved by fixpoint
    iteration over the flip-flop state probabilities.  Switching activity
    per node is the temporal-independence estimate [2 p (1 - p)] — the
    alpha of the paper's Fig. 1 power columns. *)

type t

val analyze : ?pi_probability:float -> Sttc_netlist.Netlist.t -> t
(** Default PI one-probability 0.5.  Unconfigured LUTs take probability
    0.5.  The flip-flop fixpoint stops at a 1e-4 tolerance or after 40
    iterations; an unconverged result is still a usable estimate. *)

val refine :
  t -> Sttc_netlist.Netlist.t -> changed:Sttc_netlist.Netlist.node_id list -> t
(** [refine t nl ~changed] is [analyze nl] (default parameters — which the
    base must also have been computed with), reusing [t]'s solution when
    that is provably exact: when [nl] is id-compatible with [t]'s netlist
    ({!Sttc_netlist.Netlist.kind_delta}) and every changed node keeps the
    same probability transfer function (e.g. gate→LUT replacements that
    keep the function), the base solution is returned as-is; when the
    transfer functions of some nodes did change but their forward cone
    neither reads nor feeds a flip-flop, only that cone is re-propagated.
    Any other case falls back to a full fixpoint.  The result is
    bit-identical to [analyze nl] in all cases.  Counters:
    [activity.refine.cone] / [activity.refine.full], with the visited-node
    count under [activity.refine.cone_nodes]. *)

val probability : t -> Sttc_netlist.Netlist.node_id -> float
(** Probability that the node's signal is 1. *)

val switching : t -> Sttc_netlist.Netlist.node_id -> float
(** Per-cycle output switching activity in [0, 0.5]. *)

val average_switching : t -> float
(** Mean over combinational nodes, for reporting. *)
