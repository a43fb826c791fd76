(** The one request handler behind both transports.

    [sttc protect]/[attack]/[lint] subcommands call {!handle} directly
    (offline transport); the [sttc serve] daemon calls the very same
    function from its worker domains (socket transport).  Any behavioral
    difference between the two would be a bug — the CI serve gate diffs
    their responses byte for byte.

    Budgets: a request's [timeout_s] arms one {!Sttc_util.Deadline}
    around the whole request, polled by the protect loops, the attack
    loops and the SAT solver — the same on the main domain and on a
    daemon worker, with the same [Error] text.  The attack harness's
    per-attack budgets nest inside it.

    Metrics: [serve.requests], [serve.errors] and the
    [serve.request_seconds] histogram. *)

val handle :
  ?solver:Sttc_logic.Sat.Solver.t ->
  Session.t ->
  Request.t ->
  Response.t
(** Execute one request.  An exception a verb raises (other than
    {!Sttc_util.Deadline.Expired} from an enclosing budget) becomes an
    [internal error: ...] error response, so it never kills the calling
    worker.  [solver] is the calling worker's persistent
    SAT arena, recycled across requests via
    {!Sttc_logic.Sat.Solver.reset} (results are byte-identical with or
    without it); pass it only from a context that owns the solver
    exclusively for the duration of the call. *)

val lint_diagnostics :
  algorithms:Sttc_core.Flow.algorithm list ->
  semantic:bool ->
  seed:int ->
  ?fraction:float ->
  ?budget:int ->
  rules:string list ->
  suppress:string list ->
  Sttc_netlist.Netlist.t ->
  (Sttc_lint.Diagnostic.t list, string) result
(** The lint pipeline shared with the CLI's baseline modes: structural
    pack, optional semantic pack, per-algorithm hybrid security/semantic
    packs, then {!Sttc_lint.Lint.apply} with [rules]/[suppress].
    Rejects unknown rule names up front so a typo cannot silently
    disable the gate. *)
