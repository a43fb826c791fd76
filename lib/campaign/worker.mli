(** The supervised unit of execution: one shard attempt in one process.

    A worker loads the manifest, derives its run list from the shard
    index alone, restores finished rows from the shard checkpoint, and
    executes the remaining runs one protect at a time — checkpointing
    after every run and bumping the heartbeat file around it, so the
    supervisor can tell a slow run from a hung one and a SIGKILL costs
    at most the run in flight.

    Crash discipline: the worker never retries anything itself.  A
    per-run crash, or an overrun of the manifest's [timeout_s] (a
    {!Sttc_util.Deadline}), becomes a [Failed] row (the run is {e
    complete}, with a footnote); anything that kills the process is the
    supervisor's problem, and the checkpoint makes the next attempt
    incremental.  This is the only crash guard around protect runs: the
    in-process experiment runner ({!Sttc_experiments.Runner.rows}) has
    none. *)

type outcome = {
  computed : int;  (** runs executed by this attempt *)
  restored : int;  (** rows restored from the checkpoint *)
  failed : int;  (** rows (restored or computed) that carry [Failed] *)
}

val run :
  ?allow_kill_injection:bool ->
  dir:string ->
  shard:int ->
  attempt:int ->
  unit ->
  (outcome, string) result
(** Execute one shard attempt to completion: write [shard-K.done], the
    shard metrics snapshot, and return the tally.  [Error] covers setup
    problems only (unreadable manifest, shard out of range) — per-run
    failures are data, not errors.

    Recording is enabled process-wide for the duration
    ({!Sttc_obs.Obs.enable}): the worker is the whole process, and its
    metrics snapshot is this shard's contribution to the campaign-wide
    merge.

    [allow_kill_injection] (default [false]) honours the
    [STTC_CAMPAIGN_KILL="SHARD:AFTER"] environment hook: on attempt 1
    of shard [SHARD], after [AFTER] newly computed runs, the worker
    SIGKILLs {e itself} — a deterministic mid-shard crash for the CI
    gate and the failure-path tests.  Only the [sttc worker] subcommand
    sets it; in-process callers must not (the "worker" would kill the
    host). *)

val kill_injection_env : string
(** ["STTC_CAMPAIGN_KILL"]. *)
