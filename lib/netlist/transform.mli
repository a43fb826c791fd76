(** Netlist rewrites used by the gate selection-and-replacement stage.

    Replacement never changes node ids: a gate node becomes a LUT node
    with identical fanins (plus optional dummy inputs), so timing/power
    structures can be updated incrementally and selection sets remain
    valid across rewrites. *)

val replace_gate_with_lut :
  ?extra_inputs:Netlist.node_id list ->
  ?keep_function:bool ->
  Netlist.t ->
  Netlist.node_id ->
  Netlist.t
(** [replace_gate_with_lut t id] returns a copy of [t] where gate [id] is a
    LUT slot.  With [keep_function:true] (default) the LUT is configured
    with the gate's truth table extended over any [extra_inputs] (which are
    connected but logically ignored — the paper's search-space expansion
    trick); with [keep_function:false] the config is [None] (a missing
    gate).  Raises [Invalid_argument] if [id] is not a [Gate], or if the
    resulting arity exceeds [Truth.max_arity]. *)

val replace_many :
  ?keep_function:bool -> Netlist.t -> Netlist.node_id list -> Netlist.t
(** Replace each listed gate (duplicates ignored). *)

val strip_configs : Netlist.t -> Netlist.t
(** The foundry view: every LUT's config becomes [None]. *)

val program_luts :
  Netlist.t -> (Netlist.node_id * Sttc_logic.Truth.t) list -> Netlist.t
(** Install configurations.  Raises [Invalid_argument] for non-LUT ids or
    arity mismatches. *)

val absorb_driver :
  Netlist.t -> Netlist.node_id -> driver:Netlist.node_id -> Netlist.t
(** Realize a {e complex function} in one LUT (Section IV-A.3): gate [id]
    becomes a configured LUT computing [gate ∘ driver], its inputs being
    the driver's fanins followed by the gate's remaining fanins.  The
    absorbed driver must be a combinational gate whose only reader is
    [id]; it is rewired to a buffer placeholder that {!sweep} removes.
    Raises [Invalid_argument] when the driver has other fanouts, either
    node is not a CMOS gate, the driver is not a fanin of [id], or the
    merged arity exceeds [Truth.max_arity]. *)

val absorbable_driver :
  Netlist.t -> Netlist.node_id -> Netlist.node_id option
(** A fanin of the gate that {!absorb_driver} would accept, if any
    (smallest resulting arity first). *)

(** A speculative gate→LUT replacement view over a base netlist.

    Staging marks gates as replaced without copying the netlist; {!kind}
    presents the post-replacement kind (a config-free LUT slot — cell
    delay depends only on arity, so timing through this view matches the
    committed netlist exactly).  The selection loops stage a candidate
    set, evaluate it through {!Sttc_analysis.Sta.trial_delay_ps}, then
    either {!clear} (candidate rejected) or {!commit} (materialize the
    winning set once via {!replace_many}). *)
module Overlay : sig
  type t

  val create : Netlist.t -> t
  val base : t -> Netlist.t

  val stage : t -> Netlist.node_id -> unit
  (** Mark a gate as speculatively replaced (idempotent).  Raises
      [Invalid_argument] if the node is not a [Gate]. *)

  val stage_all : t -> Netlist.node_id list -> unit

  val unstage : t -> Netlist.node_id -> unit
  (** Remove one gate from the staged set (no-op when unstaged) —
      O(staged); the persistent selection sessions retract one candidate
      at a time with it. *)

  val clear : t -> unit
  (** Unstage everything — O(staged), ready for the next candidate. *)

  val staged : t -> Netlist.node_id list
  val is_staged : t -> Netlist.node_id -> bool

  val kind : t -> Netlist.node_id -> Netlist.kind
  (** The node's kind under the overlay: a config-free LUT for staged
      gates, the base kind otherwise. *)

  val commit : ?keep_function:bool -> t -> Netlist.t
  (** Materialize the staged set ({!replace_many} semantics; the staged
      view's [config = None] is the [keep_function:false] case — the
      default [keep_function:true] installs the gates' truth tables). *)
end

val sweep : Netlist.t -> Netlist.t * int array
(** Remove nodes that reach no primary output and no flip-flop (dead
    logic, e.g. placeholders left by {!absorb_driver}).  Returns the new
    netlist and a map from old to new node ids ([-1] for removed nodes).
    This is the only transform that renumbers nodes. *)
