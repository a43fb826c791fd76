(** The security-driven hybrid STT-CMOS design flow of Figure 2.

    Input: a synthesized gate-level netlist, the technology library, and a
    security requirement (which selection algorithm, with what
    parameters).  Output: the hybrid design plus the security and PPA
    reports, ready for physical design — with an optional sign-off
    equivalence check of the programmed view. *)

type algorithm =
  | Independent of { count : int }  (** paper: 5 *)
  | Dependent
  | Parametric of Algorithms.parametric_options

val algorithm_name : algorithm -> string
(** "independent" / "dependent" / "parametric". *)

val algorithm_to_json : algorithm -> Sttc_obs.Json.t
(** The canonical wire form shared by campaign manifests, CLI flags and
    serve requests: ["dependent"] as a bare string,
    [{"name": "independent", "count": n}] and
    [{"name": "parametric", "clock_factor": f}] as objects. *)

val algorithm_of_json : Sttc_obs.Json.t -> (algorithm, string) result
(** Inverse of {!algorithm_to_json}; also accepts a bare string for any
    of the three names ([count] defaults to 5, [clock_factor] to the
    default parametric budget).  A [count] below 1 or a [clock_factor]
    below 1 or not finite is an [Error]: this is the one gate for serve
    requests and campaign manifests. *)

type hardening = {
  extra_inputs_per_lut : int;
      (** connect up to this many unused (logically ignored) inputs per
          LUT to unrelated signals — Section IV-A.3's search-space
          expansion (default 0) *)
  absorb_drivers : bool;
      (** merge a single-fanout driver gate into each selected LUT so the
          slot realizes a complex multi-gate function (default false) *)
}

val no_hardening : hardening

val default_algorithms : algorithm list
(** The three configurations used across the paper's experiments. *)

type result = {
  algorithm : algorithm;
  hybrid : Hybrid.t;
  security : Security.report;
  overhead : Ppa.overhead;
  selection_seconds : float;
      (** wall-clock of selection + replacement only (Table II metric) *)
  lint : Sttc_lint.Diagnostic.t list;
      (** structural diagnostics of the programmed hybrid (warnings and
          infos; error-severity findings make {!run} raise) *)
  parametric_meta : Algorithms.parametric_meta option;
      (** selection metadata when the algorithm was parametric-aware *)
}

(** {1 The entry point} *)

type policy = Strict
(** [Strict] fails hard: parametric selection that cannot meet its clock
    budget, or a hybrid that trips the structural lint, raises
    [Invalid_argument].  It is the only policy; the type and the
    single-field {!outcome} below stay because the frozen benchmark
    harness ([perfbench/]) compiles against
    [(Flow.run ~policy:Flow.Strict alg nl).Flow.accepted]. *)

type outcome = { accepted : result }

val run :
  ?seed:int ->
  ?library:Sttc_tech.Library.t ->
  ?fraction:float ->
  ?hardening:hardening ->
  ?backend:Sttc_backend.Backend.t ->
  ?base_sta:Sttc_analysis.Sta.t ->
  policy:policy ->
  algorithm ->
  Sttc_netlist.Netlist.t ->
  outcome
(** Run the full selection-and-replacement stage and the evaluation
    around it, once, at [seed].  Deterministic for a fixed seed; any
    failure raises [Invalid_argument].

    [backend] (default {!Sttc_backend.Backend.stt}) picks the protection
    technology.  Selection and hybrid construction are backend
    independent — the same (netlist, algorithm, seed) yields the same
    hybrid under every backend — while the PPA pricing, the Eq. 1-3
    constants and the provisioning cost are the backend's.  Hardening
    raises [Invalid_argument] under a candidate-restricted backend
    (e.g. [tvd]): its cells cannot realize the expanded functions.

    [base_sta] supplies a memoized timing analysis of the input netlist
    (e.g. the serve session cache); it is used only when it was computed
    on this exact netlist value, so it can never change results — only
    skip the base [Sta.analyze]. *)

val lint_view :
  ?library:Sttc_tech.Library.t -> result -> Sttc_lint.Security_rules.view
(** The security-lint view of a protect result: foundry netlist, LUT
    ids, algorithm tag, parametric metadata, original netlist and clock
    budget (the parametric [clock_factor], 1.08 otherwise). *)

val lint_security :
  ?library:Sttc_tech.Library.t ->
  ?only:string list ->
  result ->
  Sttc_lint.Diagnostic.t list
(** Run the {!Sttc_lint.Security_rules} pack on {!lint_view}. *)

val sign_off : ?method_:[ `Random of int | `Sat | `Bdd ] -> result -> bool
(** Programmed hybrid equivalent to the original? *)

val pp_result : Format.formatter -> result -> unit
