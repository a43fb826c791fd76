(** Experiment driver shared by the benchmark harness and the CLI.

    One call protects every ISCAS'89 structural twin with the paper's
    three algorithms under a fixed master seed; the resulting rows feed
    the Table I / Table II / Fig. 3 renderers.  The attack campaign runs
    the empirical attacks on a small circuit where they terminate.

    The driver fans its work out over {!Sttc_util.Pool} when
    [Config.jobs > 1]; per-task seeds are derived before submission, so
    rows are bit-identical at any job count. *)

val master_seed : int
(** 20160605 — fixed so published output is reproducible. *)

(** {1 Configuration}

    The driver's knobs as one value instead of a growing pile of
    optional arguments.  Build one from {!Config.default}:
    {[ { Config.default with quick = true; jobs = 4 } ]} *)

module Config : sig
  type t = {
    quick : bool;  (** restrict to the sub-1000-gate benchmarks *)
    seed : int;  (** master seed; every row is deterministic in it *)
    only : string list option;
        (** restrict to these benchmarks (unknown names raise up front) *)
    jobs : int;
        (** worker domains; [1] = no pool (identical rows either way) *)
    backend : string;
        (** protection backend name ({!Sttc_backend.Backend.names});
            default ["stt"] *)
  }

  val default : t
  (** quick=false, seed={!master_seed}, no restriction, jobs=1,
      backend="stt". *)

  val with_jobs : int -> t -> t
end

val rows : Config.t -> Sttc_core.Report.benchmark_row list
(** Protect every selected benchmark with the paper's three algorithms.

    One fan-out for every job count: a build task per benchmark (its
    netlist warmed with {!Sttc_netlist.Netlist.warm}), then a protect
    task per benchmark x algorithm, with rows assembled in submission
    order.  Both stages go through one mapper: [List.map], or
    {!Sttc_util.Pool.map_exn} on a single pool when [jobs > 1] and the
    bag is large enough to repay spawning domains
    ({!Sttc_util.Pool.worthwhile}, 30,000 gate x algorithm units).
    Each task depends only on [seed], so rows are bit-identical at any
    job count, and both mappers record the same [runner.build] /
    [runner.protect] spans and metrics.  A crashing task propagates:
    as itself under [List.map], as {!Sttc_util.Pool.Task_error} under
    the pool.

    [backend] selects the protection technology for every protect stage
    (resolved up front with {!Sttc_backend.Backend.find_exn}, so an
    unknown name raises before any work starts).

    There is no budget, isolation or checkpoint here: a budgeted,
    crash-isolated, resumable sweep is a campaign manifest
    ({!Sttc_campaign}, e.g. [examples/table1.json]). *)

val build_circuit : ?seed:int -> string -> Sttc_netlist.Netlist.t
(** Resolve a benchmark name to its netlist: the ISCAS'89 structural
    twins ({!Sttc_netlist.Iscas_profiles}) first, then the embedded
    genuine benchmarks ({!Sttc_netlist.Iscas_data}: s27, c17).  Raises
    [Invalid_argument] on unknown names.  Without [seed] the profile's
    own name-derived seed is used, so every caller sees the same
    circuit. *)

val fig1 : unit -> string
val table1 : Sttc_core.Report.benchmark_row list -> string
val table2 : Sttc_core.Report.benchmark_row list -> string
val fig3 : Sttc_core.Report.benchmark_row list -> string

val attack_campaign :
  ?seed:int ->
  ?sat_timeout_s:float ->
  ?jobs:int ->
  ?backend:Sttc_backend.Backend.t ->
  unit ->
  string
(** Protect an 80-gate circuit three ways and run the SAT / truth-table /
    hill-climb / brute-force attacks against each.  [jobs > 1] runs one
    pool task per algorithm (each campaign's attacks then enforce their
    budgets cooperatively).  [backend] (default STT) applies to both the
    defence and the attacker model. *)

val sweep :
  ?seed:int ->
  Sttc_netlist.Netlist.t ->
  counts:int list ->
  string
(** Security-vs-overhead frontier: independent selection at increasing
    LUT budgets on one circuit (used by the ppa_sweep example). *)

val sidechannel : ?seed:int -> unit -> string
(** DPA leakage (difference-of-means relative to mean power) of an
    original circuit versus its three hybrids, targeting each replaced
    gate's signal — the side-channel robustness claim of Section II made
    measurable. *)

val ablation_parametric : ?seed:int -> unit -> string
(** Sweep of the parametric algorithm's timing-constraint factor on
    s1196: inserted LUTs, measured degradation and attack cost per
    allowed slack. *)

val ablation_hardening : ?seed:int -> unit -> string
(** Effect of the Section IV-A.3 hardening measures (dummy extra LUT
    inputs, complex-function absorption) on the brute-force space and the
    hill-climbing attack. *)

val baselines : ?seed:int -> unit -> string
(** The paper's two comparison points made runnable (Section II and
    IV-A.3):
    - {e camouflaging} [12]: same number of hidden cells, but the attacker
      knows each cell is one of only three functions — search spaces and
      SAT-attack effort side by side;
    - {e SRAM-based LUTs} [8]: the same hybrid netlist priced with SRAM
      LUT cells — PPA comparison plus the volatility problem (the
      bitstream is exposed on every power-up, so its effective search
      space is 1). *)

val fault_sweep :
  ?seed:int ->
  ?bench:string ->
  ?algorithm:Sttc_core.Flow.algorithm ->
  ?rates:float list ->
  ?stuck_rate:float ->
  ?dies:int ->
  ?resilience:Sttc_core.Provision.resilience ->
  ?jobs:int ->
  unit ->
  string
(** Stochastic-write provisioning study (beyond the paper): protect one
    ISCAS twin (default s641, dependent selection), then program its
    foundry view through {!Sttc_fault.Mtj} channels across a sweep of
    write-error rates.  Two tables: a per-die detail comparing the
    zero-retry provisioner against the resilient one on the same die
    (outcome, retried/corrected/spared bits, write attempts, energy
    overhead versus the ideal channel, SAT sign-off of the effective
    view), and a programming-yield summary over [dies] independent
    dies per rate.  [jobs > 1] programs the yield table's dies in
    parallel; every die's channel seed is derived up front, so the
    output is identical at any job count. *)

val ablation_constants : ?seed:int -> unit -> string
(** Eq. (2) attack cost under the paper's published alpha/P constants
    versus the constants computed from the meaningful-gate similarity
    metric in this repo — the sensitivity of Fig. 3 to that modelling
    choice. *)
