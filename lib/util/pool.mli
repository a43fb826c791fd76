(** Fixed-size domain work pool for embarrassingly parallel experiment
    fan-outs.

    The paper's evaluation is a bag of independent tasks (benchmark x
    algorithm protect runs, attack-harness entries, per-die provisioning
    trials), each deterministic given a pre-derived seed.  The pool runs
    such bags across OCaml 5 domains while keeping submission-order
    results, so serial and parallel runs produce identical output.

    Determinism contract: every task's random stream comes from an
    explicit per-task seed fixed {e before} submission (protect seeds
    [Rng.make (seed lxor Hashtbl.hash algorithm_name)]; a die sweep
    seeds per die index), never from a generator shared across tasks,
    so results do not depend on which domain ran what.  Tasks must not
    share mutable state; netlists shared read-only across tasks should
    have their lazy caches forced first ({!Sttc_netlist.Netlist.warm}).

    Deadlines: every task runs under the submitter's {!Deadline}, so a
    budget armed around a fan-out bounds the tasks on every worker
    domain.  A task that polls past it fails with {!Deadline.Expired}
    like any other captured error, and {!map} itself raises
    {!Deadline.Expired} once the bag settles past the deadline. *)

type error = {
  index : int;  (** submission position of the failed task *)
  exn : string;  (** [Printexc.to_string] of the captured exception *)
  backtrace : string;  (** captured backtrace text (may be empty) *)
}

exception Task_error of error
(** Raised by {!map_exn} / {!map_reduce} for the failed task with the
    smallest submission index. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [-j 0] resolves to. *)

val worthwhile :
  ?min_work:float -> jobs:int -> tasks:int -> work:float -> unit -> bool
(** [worthwhile ~jobs ~tasks ~work ()] — should this bag be fanned out
    at all?  Spawning and joining worker domains costs real time, so a
    pool over a small bag loses to a plain serial loop.  Returns [true]
    only when [jobs > 1], there is more than one task, and the caller's
    estimate of total work ([work], arbitrary units) reaches [min_work]
    (default [1.], i.e. the caller pre-scaled the estimate).  Callers
    that can't estimate work should pass [work = infinity] and rely on
    the task count alone. *)

val map : t -> ('a -> 'b) -> 'a list -> ('b, error) result list
(** [map t f items] applies [f] to every item on the worker domains and
    returns the outcomes in submission order.  Exceptions are captured
    per task: one failed task never aborts the bag.  Each task adopts
    the caller's {!Deadline}; if it has passed once every task has
    settled, [map] raises {!Deadline.Expired} instead of returning.

    Must not be called from inside a pool task of the same pool (the
    worker would wait on itself); nested fan-outs run serially instead. *)

val map_exn : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!map}, but re-raises the first (by submission index) captured
    failure as {!Task_error} after the whole bag has settled. *)

val map_reduce :
  t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc
(** [map_reduce t ~map ~reduce ~init items] maps on the workers, then
    folds the results in submission order on the calling domain — the
    reduction is order-stable, so a non-commutative [reduce] still gives
    the serial answer.  Raises {!Task_error} like {!map_exn}. *)

val with_pool : ?chunk:int -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] spawns [jobs] worker domains ([jobs >= 1],
    else [Invalid_argument]), runs [f] with them and shuts the pool down
    on the way out, exceptions included: already-queued work is drained,
    the workers are joined, and later {!map} calls on the pool raise
    [Invalid_argument].  [chunk] fixes the number of consecutive tasks
    handed to a worker at a time (default: computed from the submission
    size, about four chunks per worker). *)

(** {1 Instrumentation probe}

    The pool sits below the observability layer in the dependency
    order, so rather than record anything itself it exposes one hook.
    [Sttc_obs.Obs.with_run] installs a probe that turns these
    callbacks into spans and metrics; without one, the overhead is a
    single atomic load per {!map} call. *)

type probe = {
  on_submit : tasks:int -> chunks:int -> unit;
      (** called once per {!map} submission, on the calling domain,
          before any work is enqueued *)
  around_chunk : size:int -> (unit -> unit) -> unit;
      (** wraps each chunk's execution on its worker domain; must call
          the thunk exactly once ([size] = tasks in the chunk) *)
}

val set_probe : probe option -> unit
(** Install or remove the global probe.  Affects subsequent {!map}
    calls; intended for process startup, not mid-run toggling. *)

val now_s : unit -> float
(** The pool's monotonic clock, in seconds from an arbitrary origin
    ({!Deadline.now_s}). *)
