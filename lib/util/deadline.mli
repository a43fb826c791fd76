(** The one wall-clock budget mechanism: a cooperative, per-domain
    deadline on a monotonic clock.

    A budget is armed with {!within} and observed only where long-running
    code calls {!check} — the SAT solver's search loop, the attack
    loops, the protect loop boundaries.  Nothing is asynchronous, so an
    expiry can never land in the middle of a mutation, and the same code
    keeps its budget on the main domain, on {!Pool} workers (which adopt
    the submitter's deadline) and in serve worker domains alike.

    Budgets nest by [min]: an inner {!within} can only tighten the
    enclosing deadline, so a per-attack budget inside a request budget
    needs no special casing.  An expiry is reported by the outermost
    {!within} whose budget has run out: an inner one re-raises
    {!Expired} when its enclosing budget is spent too. *)

exception Expired
(** Raised by {!check} once the current domain's deadline has passed.
    Code must let it propagate to the enclosing {!within}: catching it
    and answering "unknown" or "cut off" would turn a spent budget into
    a verdict. *)

val now_s : unit -> float
(** The monotonic clock deadlines are read on, in seconds from an
    arbitrary origin. *)

val within : float -> (unit -> 'a) -> ('a, [ `Expired ]) result
(** [within seconds f] runs [f ()] with the deadline
    [min (enclosing deadline) (now + seconds)] and restores the
    enclosing deadline on every exit, exceptions included.

    Returns [Error `Expired] without running [f] when [seconds <= 0], and
    after [f] when [f] raised {!Expired} or returned past
    [now + seconds].  If the enclosing deadline has also passed, the
    expiry belongs to it: {!Expired} is raised instead.  Other exceptions
    from [f] propagate unchanged. *)

val check : unit -> unit
(** Raise {!Expired} if the current domain's deadline has passed.  Costs
    one domain-local load when no deadline is armed; call it on a stride
    inside hot loops, not per elementary step. *)

type t
(** An absolute deadline (possibly none). *)

val current : unit -> t
(** The current domain's deadline. *)

val adopt : t -> (unit -> 'a) -> 'a
(** [adopt d f] runs [f ()] with [d] as the current domain's deadline,
    then restores the previous one — how {!Pool.map} carries the
    submitter's budget into tasks on other domains. *)
