(* Benchmark records: each section measures one property of the
   implementation beyond the paper, checks its identity contract, and
   writes a BENCH_<section>.json record through [record].  The paper's
   tables and figures come from the sttc subcommands (sttc fig1, table1,
   table2, fig3, attacks, sidechannel, baseline, ablation, faults), not
   from here.

   Usage:
     dune exec bench/main.exe                  # every record
     dune exec bench/main.exe -- sat serve     # chosen records
     dune exec bench/main.exe -- -j 4 parallel # 4 worker domains
     dune exec bench/main.exe -- --trace t.json --metrics m.json lint
                                               # record observability output

   Records: parallel sat lint campaign serve scale backend. *)

module J = Sttc_obs.Json
module Runner = Sttc_experiments.Runner
module Flow = Sttc_core.Flow
module Profiles = Sttc_netlist.Iscas_profiles

let time = Sttc_util.Timing.time

let protect_strict ?backend ~seed alg nl =
  (Flow.run ~seed ?backend ~policy:Flow.Strict alg nl).Flow.accepted

let section title =
  Printf.printf
    "\n==============================================\n%s\n==============================================\n%!"
    title

(* The one writer of every BENCH_<name>.json: a shared envelope
   (experiment, build, cores, seed), the section's own scalar fields,
   then [rows] — flat objects, one field per line in the pretty-printed
   file, which is what tools/bench_diff.sh scrapes. *)
let record name ~experiment ~seed fields rows =
  let file = "BENCH_" ^ name ^ ".json" in
  Sttc_obs.Export.write_file file
    (J.Obj
       ([
          ("experiment", J.String experiment);
          ("build", J.Obj (Sttc_obs.Build_info.to_fields ()));
          ("cores", J.Int (Sttc_util.Pool.default_jobs ()));
          ("seed", J.Int seed);
        ]
       @ fields
       @ [ ("rows", J.List (List.map (fun r -> J.Obj r) rows)) ]));
  Printf.printf "  wrote %s\n" file

(* An identity contract that failed: the record is already written (so
   the evidence survives), the bench exits nonzero. *)
let require ok msg =
  if not ok then begin
    Printf.printf "%s\n" msg;
    exit 1
  end

(* Sections whose figures come from the metrics registry, which records
   only while observability is on: switch it on for [f] unless a
   --metrics/--trace run already did. *)
let with_metrics f =
  if Sttc_obs.Control.enabled () then f ()
  else begin
    Sttc_obs.Control.enable ();
    Fun.protect ~finally:Sttc_obs.Control.disable f
  end

(* ---------- serial vs parallel speedup record ---------- *)

(* Times the full Table I fan-out at one worker and at [jobs] workers
   (the full set is the one large enough to take the pool path; the
   quick set runs on [List.map] at any job count) and checks the rows
   are byte-identical (the Pool determinism contract). *)
let parallel ~jobs () =
  let jobs = if jobs > 1 then jobs else Sttc_util.Pool.default_jobs () in
  section
    (Printf.sprintf "Parallel speedup - full Table I rows, 1 vs %d workers"
       jobs);
  let run j = Runner.rows Runner.Config.(default |> with_jobs j) in
  let serial_rows, serial_s = time (fun () -> run 1) in
  let par_rows, parallel_s = time (fun () -> run jobs) in
  let identical = Runner.table1 serial_rows = Runner.table1 par_rows in
  let speedup = serial_s /. parallel_s in
  Printf.printf
    "  serial %.2fs, %d workers %.2fs -> %.2fx; rows identical: %b\n" serial_s
    jobs parallel_s speedup identical;
  record "parallel" ~experiment:"table1-full"
    ~seed:Runner.Config.default.Runner.Config.seed
    [
      ("jobs", J.Int jobs);
      ("speedup", J.Float speedup);
      ("rows_identical", J.Bool identical);
    ]
    [
      [ ("jobs", J.Int 1); ("seconds", J.Float serial_s) ];
      [ ("jobs", J.Int jobs); ("seconds", J.Float parallel_s) ];
    ];
  require identical "parallel rows DIFFER from serial rows"

(* ---------- incremental vs scratch SAT-attack record ---------- *)

(* Runs the combinational SAT attack twice per benchmark x algorithm —
   once rebuilding a scratch solver every iteration (the pre-incremental
   cost profile) and once on a single persistent solver — and checks
   that verdicts and recovered keys are identical. *)
let sat_bench () =
  section "SAT attack - one persistent solver vs scratch per iteration";
  let module Sat_attack = Sttc_attack.Sat_attack in
  let gen name n_gates n_pi n_po levels =
    Sttc_netlist.Generator.generate ~seed:11
      {
        Sttc_netlist.Generator.design_name = name;
        n_pi;
        n_po;
        n_ff = 0;
        n_gates;
        levels;
      }
  in
  let circuits =
    [ gen "atk150" 150 10 8 7; gen "atk300" 300 12 10 8; gen "atk500" 500 14 10 9 ]
  in
  let algorithms =
    [
      ("independent", Flow.Independent { count = 10 });
      ("dependent", Flow.Dependent);
      ("parametric", Flow.Parametric Sttc_core.Algorithms.default_parametric);
    ]
  in
  let key_string bitstream =
    String.concat ";"
      (List.map
         (fun (id, t) -> Printf.sprintf "%d=%s" id (Sttc_logic.Truth.to_string t))
         bitstream)
  in
  (* seconds, verdict, key, iterations, solver statistics *)
  let attack mode hybrid =
    let outcome, seconds =
      time (fun () -> Sat_attack.run ~timeout_s:120. ~mode hybrid)
    in
    match outcome with
    | Sat_attack.Broken b ->
        (seconds, "broken", key_string b.bitstream, b.iterations, b.stats)
    | Sat_attack.Exhausted e ->
        (seconds, "exhausted:" ^ e.reason, "", e.iterations, e.stats)
  in
  let mode_fields prefix (seconds, verdict, _, iterations, (s : Sttc_logic.Sat.stats)) =
    List.map
      (fun (k, v) -> (prefix ^ "_" ^ k, v))
      [
        ("s", J.Float seconds);
        ("verdict", J.String verdict);
        ("iterations", J.Int iterations);
        ("decisions", J.Int s.decisions);
        ("propagations", J.Int s.propagations);
        ("conflicts", J.Int s.conflicts);
        ("learned", J.Int s.learned);
        ("kept", J.Int s.kept);
        ("removed", J.Int s.removed);
        ("restarts", J.Int s.restarts);
      ]
  in
  let results =
    List.concat_map
      (fun nl ->
        let circuit = Sttc_netlist.Netlist.design_name nl in
        List.map
          (fun (alg_name, alg) ->
            let hybrid = (protect_strict ~seed:1 alg nl).Flow.hybrid in
            let ((s_s, s_verdict, s_key, s_iters, _) as scratch) =
              attack Sat_attack.Scratch hybrid
            in
            let ((i_s, i_verdict, i_key, i_iters, _) as incremental) =
              attack Sat_attack.Incremental hybrid
            in
            let identical = s_verdict = i_verdict && s_key = i_key in
            Printf.printf
              "  %-8s %-12s scratch %6.2fs (%3d it)  incremental %6.2fs \
               (%3d it)  %5.2fx  %s %s\n\
               %!"
              circuit alg_name s_s s_iters i_s i_iters (s_s /. i_s) i_verdict
              (if identical then "identical" else "MISMATCH");
            ( (s_s, i_s, identical),
              [
                ("circuit", J.String circuit);
                ("algorithm", J.String alg_name);
                ("luts", J.Int (Sttc_core.Hybrid.lut_count hybrid));
              ]
              @ mode_fields "scratch" scratch
              @ mode_fields "incremental" incremental
              @ [
                  ("speedup", J.Float (s_s /. i_s));
                  ("identical", J.Bool identical);
                ] ))
          algorithms)
      circuits
  in
  let total f = List.fold_left (fun acc (t, _) -> acc +. f t) 0. results in
  let scratch_total = total (fun (s, _, _) -> s) in
  let incr_total = total (fun (_, i, _) -> i) in
  let speedup = scratch_total /. incr_total in
  let all_identical = List.for_all (fun ((_, _, id), _) -> id) results in
  Printf.printf
    "  total: scratch %.2fs, incremental %.2fs -> %.2fx; rows identical: %b\n"
    scratch_total incr_total speedup all_identical;
  record "sat" ~experiment:"sat-attack-incremental" ~seed:1
    [
      ("scratch_total_s", J.Float scratch_total);
      ("incremental_total_s", J.Float incr_total);
      ("speedup", J.Float speedup);
      ("rows_identical", J.Bool all_identical);
    ]
    (List.map snd results);
  require all_identical
    "incremental verdicts/keys DIFFER from scratch baseline"

(* ---------- semantic lint record ---------- *)

(* Protects each ISCAS'89 profile with independent selection and runs
   the full semantic (SEM) pack — the Eq. 1 prover included — on the
   foundry view with the true bitstream: wall-clock, SAT query counts
   and findings per profile. *)
let lint_bench () =
  section "Semantic lint - Eq. 1 prover across the ISCAS'89 profiles";
  let module Metrics = Sttc_obs.Metrics in
  let module D = Sttc_lint.Diagnostic in
  let module Sem = Sttc_lint.Semantic_rules in
  let profiles =
    [ "s641"; "s820"; "s832"; "s953"; "s1196"; "s1238"; "s1488";
      "s5378a"; "s9234a" ]
  in
  let counters snap =
    (* conflicts land in one histogram per query label
       (lint.sem.<label>.solver_conflicts); sum them all *)
    let conflicts =
      List.fold_left
        (fun acc (name, p) ->
          match p with
          | Metrics.Histogram s
            when String.starts_with ~prefix:"lint.sem." name
                 && String.ends_with ~suffix:".solver_conflicts" name ->
              acc + int_of_float s.Metrics.sum
          | _ -> acc)
        0 snap
    in
    ( Metrics.counter_value snap "lint.sem.queries",
      Metrics.counter_value snap "lint.sem.cutoffs",
      conflicts )
  in
  let rows =
    with_metrics @@ fun () ->
    List.map
      (fun name ->
        let nl = Profiles.build_by_name name in
        let r = protect_strict ~seed:1 (Flow.Independent { count = 5 }) nl in
        let h = r.Flow.hybrid in
        let q0, c0, k0 = counters (Metrics.snapshot ()) in
        let ds, seconds =
          time (fun () ->
              Sem.run
                (Sem.view
                   ~luts:(Sttc_core.Hybrid.lut_ids h)
                   ~configs:(Sttc_core.Hybrid.bitstream h)
                   (Sttc_core.Hybrid.foundry_view h)))
        in
        let q1, c1, k1 = counters (Metrics.snapshot ()) in
        let errors = D.errors ds and total = List.length ds in
        Printf.printf
          "  %-8s %6.2fs  %5d queries  %3d cutoffs  %6d conflicts  %3d findings (%d errors)\n%!"
          name seconds (q1 - q0) (c1 - c0) (k1 - k0) total errors;
        [
          ("benchmark", J.String name);
          ("seconds", J.Float seconds);
          ("queries", J.Int (q1 - q0));
          ("cutoffs", J.Int (c1 - c0));
          ("conflicts", J.Int (k1 - k0));
          ("findings", J.Int total);
          ("errors", J.Int errors);
        ])
      profiles
  in
  record "lint" ~experiment:"semantic-lint" ~seed:1
    [ ("algorithm", J.String "independent") ]
    rows

(* ---------- campaign engine record ---------- *)

(* Runs a small 2-shard campaign twice — once clean, once with a worker
   SIGKILLed mid-shard and then resumed — asserts the two aggregated
   reports are byte-identical (the crash-tolerance contract), and
   records throughput plus the supervision counters. *)
let campaign_bench () =
  section "Campaign engine - supervised shards, kill + resume";
  let module C = Sttc_campaign in
  let seed = 1 in
  let manifest =
    C.Manifest.make ~name:"bench" ~circuits:[ "s27" ] ~seeds:[ seed; seed + 1 ]
      ~shards:2 ~retries:1 ()
  in
  let total_runs = C.Manifest.run_count manifest in
  (* the CLI binary sits next to this executable in the build tree; fall
     back to in-process shards (no kill injection) when it is absent *)
  let sttc =
    let root = Filename.dirname (Filename.dirname Sys.executable_name) in
    Filename.concat (Filename.concat root "bin") "sttc.exe"
  in
  let spawned = Sys.file_exists sttc in
  let worker =
    if spawned then
      C.Supervisor.Spawn
        (fun ~dir ~shard ~attempt ->
          [|
            sttc; "worker"; "--dir"; dir; "--shard"; string_of_int shard;
            "--attempt"; string_of_int attempt;
          |])
    else C.Supervisor.In_process
  in
  let fresh_dir tag =
    let path = Filename.temp_file ("bench-campaign-" ^ tag) "" in
    Sys.remove path;
    C.Shard.prepare_dir path;
    C.Manifest.save (C.Shard.manifest_path path) manifest;
    path
  in
  let supervise ?retries dir =
    C.Supervisor.run
      (C.Supervisor.config ~jobs:2 ?retries ~worker ~dir ~manifest ())
  in
  let report dir outcome =
    let degraded =
      List.filter_map
        (function
          | s, C.Supervisor.Exhausted { last; _ } ->
              Some (s, C.Supervisor.cause_to_string last)
          | _, C.Supervisor.Complete -> None)
        outcome.C.Supervisor.statuses
    in
    (match C.Aggregate.write ~dir (C.Aggregate.collect ~degraded ~dir manifest)
     with
    | Ok () -> ()
    | Error e -> require false ("campaign report validation failed: " ^ e));
    In_channel.with_open_bin (C.Shard.report_json_path dir)
      In_channel.input_all
  in
  (* pass 1: uninterrupted *)
  let clean_dir = fresh_dir "clean" in
  let clean_outcome, clean_s = time (fun () -> supervise clean_dir) in
  let clean_report = report clean_dir clean_outcome in
  (* pass 2: SIGKILL shard 0's worker after its first run, no retries —
     the shard degrades; then resume without the fault *)
  let kill_dir = fresh_dir "kill" in
  if spawned then Unix.putenv C.Worker.kill_injection_env "0:1";
  let first = supervise ~retries:0 kill_dir in
  if spawned then Unix.putenv C.Worker.kill_injection_env "";
  let resumed, resume_s = time (fun () -> supervise kill_dir) in
  let killed_report = report kill_dir resumed in
  let identical = clean_report = killed_report in
  Printf.printf
    "  %d runs x 2 shards%s: clean %.2fs, kill+resume %.2fs; degraded first \
     pass: %d; reports identical: %b\n"
    total_runs
    (if spawned then "" else " (in-process fallback)")
    clean_s resume_s first.C.Supervisor.degraded identical;
  let both f = f first + f resumed in
  record "campaign" ~experiment:"campaign-kill-resume" ~seed
    [
      ("runs", J.Int total_runs);
      ("shards", J.Int manifest.C.Manifest.shards);
      ("spawned_workers", J.Bool spawned);
      ("runs_per_s", J.Float (float_of_int total_runs /. Float.max 1e-9 clean_s));
      ("first_pass_degraded", J.Int first.C.Supervisor.degraded);
      ("retries", J.Int (both (fun o -> o.C.Supervisor.retries)));
      ("respawns", J.Int (both (fun o -> o.C.Supervisor.respawns)));
      ("heartbeat_misses", J.Int (both (fun o -> o.C.Supervisor.heartbeat_misses)));
      ("reports_identical", J.Bool identical);
    ]
    [
      [ ("pass", J.String "clean"); ("seconds", J.Float clean_s) ];
      [ ("pass", J.String "kill-resume"); ("seconds", J.Float resume_s) ];
    ];
  require identical "killed+resumed report DIFFERS from the clean report"

(* ---------- serve daemon load record ---------- *)

(* Boots the [sttc serve] daemon twice on a throwaway socket — once with
   the netlist cache disabled (every request re-parses and re-warms its
   netlist) and once with it enabled — fires the same mixed request
   stream at it from concurrent client domains, and records p50/p95/p99
   latency plus sustained req/s per pass.  The warm-cache p50 sitting
   measurably below the cold one is the point of a persistent daemon. *)
let serve_bench ~jobs () =
  section "Serve daemon - cold vs warm netlist cache over the Unix socket";
  let module Serve = Sttc_serve in
  let seed = 1 in
  let workers = max 2 jobs in
  let n_clients = 4 and per_client = 250 in
  (* the cache-sensitive request: lint an inline netlist big enough that
     parsing + warming it is a visible share of the request *)
  let text =
    Sttc_netlist.Bench_io.to_string
      (Sttc_netlist.Generator.generate ~seed:7
         {
           Sttc_netlist.Generator.design_name = "srv40";
           n_pi = 8;
           n_po = 6;
           n_ff = 0;
           n_gates = 40;
           levels = 5;
         })
  in
  let req payload = { Serve.Request.id = None; timeout_s = None; payload } in
  let lint_req =
    req
      (Serve.Request.Lint
         {
           source = Serve.Request.Inline { name = "srv40"; text };
           algorithms = [];
           semantic = false;
           seed;
           fraction = None;
           budget = None;
           rules = [];
           suppress = [];
           format = `Json;
         })
  in
  let protect_req =
    req
      (Serve.Request.Protect
         {
           source = Serve.Request.Named "s27";
           algorithm = Flow.Independent { count = 3 };
           config = Sttc_campaign.Manifest.default_config;
           seed;
           backend = "stt";
           sign_off = false;
           emit_foundry = false;
           emit_bitstream = false;
           emit_verilog = false;
           timing = false;
         })
  in
  let mix =
    [|
      lint_req; lint_req; lint_req; protect_req; lint_req; lint_req;
      req (Serve.Request.Ping { sleep_s = 0. }); req Serve.Request.Stats;
    |]
  in
  let pass ~tag ~cache_capacity =
    let socket =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sttc-bench-%s-%d.sock" tag (Unix.getpid ()))
    in
    if Sys.file_exists socket then Sys.remove socket;
    let cfg =
      Serve.Server.Config.(
        default |> with_socket socket |> with_jobs workers
        |> with_queue_capacity 256
        |> with_cache_capacity cache_capacity)
    in
    let srv = Domain.spawn (fun () -> Serve.Server.run cfg) in
    let rec await tries =
      if Sys.file_exists socket then ()
      else if tries = 0 then failwith ("daemon never bound " ^ socket)
      else begin
        Unix.sleepf 0.02;
        await (tries - 1)
      end
    in
    await 250;
    let client c =
      Serve.Client.with_connection socket (fun conn ->
          let lats = Array.make per_client 0. in
          let rec go i =
            if i = per_client then Ok lats
            else
              let r = mix.((c + i) mod Array.length mix) in
              match time (fun () -> Serve.Client.request conn r) with
              | Ok (Serve.Response.Ok _), seconds ->
                  lats.(i) <- seconds *. 1000.;
                  go (i + 1)
              | Ok (Serve.Response.Error { message; _ }), _ -> Error message
              | Ok (Serve.Response.Overloaded _), _ -> Error "overloaded"
              | (Error _ as e), _ -> e
          in
          go 0)
    in
    let results, wall =
      time (fun () ->
          List.init n_clients (fun c -> Domain.spawn (fun () -> client c))
          |> List.map Domain.join)
    in
    (match
       Serve.Client.with_connection socket (fun conn ->
           Serve.Client.request conn (req Serve.Request.Shutdown))
     with
    | Ok _ -> ()
    | Error e -> failwith ("shutdown failed: " ^ e));
    Domain.join srv;
    let lats =
      List.concat_map
        (function
          | Ok a -> Array.to_list a
          | Error e -> failwith ("serve bench client failed: " ^ e))
        results
    in
    let total = List.length lats in
    let rps = float_of_int total /. wall in
    let percentile p = Sttc_util.Stats.percentile p lats in
    let p50 = percentile 50. and p95 = percentile 95. and p99 = percentile 99. in
    Printf.printf
      "  %-4s cache: %4d reqs in %5.2fs -> %7.1f req/s   p50 %.3fms  p95 \
       %.3fms  p99 %.3fms\n\
       %!"
      tag total wall rps p50 p95 p99;
    ( p50,
      [
        ("cache", J.String tag);
        ("req_per_s", J.Float rps);
        ("p50_ms", J.Float p50);
        ("p95_ms", J.Float p95);
        ("p99_ms", J.Float p99);
      ] )
  in
  let cold_p50, cold = pass ~tag:"cold" ~cache_capacity:0 in
  let warm_p50, warm = pass ~tag:"warm" ~cache_capacity:32 in
  let faster = warm_p50 < cold_p50 in
  Printf.printf "  warm p50 below cold p50: %b\n" faster;
  record "serve" ~experiment:"serve-load" ~seed
    [
      ("workers", J.Int workers);
      ("clients", J.Int n_clients);
      ("requests_per_client", J.Int per_client);
      ("warm_p50_below_cold", J.Bool faster);
    ]
    [ cold; warm ];
  require faster "warm-cache p50 is NOT below cold-cache p50"

(* ---------- scale families: incremental timing record ---------- *)

(* Sweeps the s-like scale family from 10^3 to 10^6 gates.  Per size it
   times generation, one full STA, and the protect flow in its default
   incremental mode; where a second protect run is affordable the legacy
   full-re-analysis mode (STTC_FULL_STA=1) runs too and the two hybrids
   are checked byte-identical.  The per-candidate cost is also measured
   directly — K speculative gate->LUT evaluations through Sta.trial
   against K from-scratch analyses of the same modified netlists, with
   the delays asserted equal.  Override the size list with
   STTC_SCALE_SIZES=1000,10000 for a quick pass (tools/bench_diff.sh
   and tools/ci.sh do). *)
let scale_bench () =
  section "Scale families - incremental timing vs full re-analysis";
  let module Metrics = Sttc_obs.Metrics in
  let module Gen = Sttc_netlist.Generator in
  let module Netlist = Sttc_netlist.Netlist in
  let module Transform = Sttc_netlist.Transform in
  let module Sta = Sttc_analysis.Sta in
  let lib = Sttc_tech.Library.cmos90 in
  let sizes =
    match Sys.getenv_opt "STTC_SCALE_SIZES" with
    | None | Some "" -> [ 1_000; 10_000; 50_000; 100_000; 1_000_000 ]
    | Some s ->
        List.filter_map
          (fun tok ->
            let tok = String.trim tok in
            if tok = "" then None
            else
              match int_of_string_opt tok with
              | Some v when v >= 8 -> Some v
              | _ ->
                  failwith ("STTC_SCALE_SIZES: bad gate count '" ^ tok ^ "'"))
          (String.split_on_char ',' s)
  in
  (* full-mode protect re-runs Sta.analyze per candidate; above this
     size that costs minutes per run, so the sweep records null there
     and the per-candidate speedup stands in for it *)
  let full_protect_ceiling = 100_000 in
  (* a tight clock budget keeps the repair loop busy, which is exactly
     the hot path the incremental engine exists for; n_paths keeps the
     paper default (gates/1500), so candidate counts grow with size *)
  let clock_factor = 1.02 in
  let algorithm =
    Flow.Parametric
      { Sttc_core.Algorithms.default_parametric with Sttc_core.Algorithms.clock_factor }
  in
  let peak_rss_kb () =
    (* VmHWM of /proc/self/status — the process high-water mark, hence
       monotonic across the sweep; 0 where procfs is unavailable *)
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> 0
            | Some line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d" Fun.id
            | Some _ -> go ()
          in
          go ())
    with _ -> 0
  in
  let hybrid_fingerprint (r : Flow.result) =
    let h = r.Flow.hybrid in
    Sttc_netlist.Bench_io.to_string (Sttc_core.Hybrid.foundry_view h)
    ^ Sttc_core.Provision.to_string (Sttc_core.Provision.of_hybrid h)
  in
  let cone_stats snap =
    match Metrics.find snap "sta.retime.cone_nodes" with
    | Some (Metrics.Histogram s) -> (s.Metrics.count, s.Metrics.sum)
    | _ -> (0, 0.)
  in
  (* K single-gate speculative evaluations: the trial engine against a
     from-scratch analysis of the identical modified netlist *)
  let candidate_speedup nl sta =
    let rng = Sttc_util.Rng.make 42 in
    let gates =
      Array.of_seq
        (Seq.filter
           (fun id ->
             match Netlist.kind nl id with
             | Netlist.Gate _ -> true
             | _ -> false)
           (Seq.init (Netlist.node_count nl) Fun.id))
    in
    let picks = Array.init 20 (fun _ -> Sttc_util.Rng.pick rng gates) in
    let overlay = Transform.Overlay.create nl in
    let tr = Sta.trial lib sta in
    let c0, s0 = cone_stats (Metrics.snapshot ()) in
    let trial_delays, trial_s =
      time (fun () ->
          Array.map
            (fun g ->
              Transform.Overlay.stage overlay g;
              let d =
                Sta.trial_delay_ps tr
                  ~kind_of:(Transform.Overlay.kind overlay)
                  [ g ]
              in
              Transform.Overlay.clear overlay;
              d)
            picks)
    in
    let c1, s1 = cone_stats (Metrics.snapshot ()) in
    let full_delays, full_s =
      time (fun () ->
          Array.map
            (fun g ->
              Sta.critical_delay_ps
                (Sta.analyze lib
                   (Transform.replace_many ~keep_function:false nl [ g ])))
            picks)
    in
    require (trial_delays = full_delays)
      "trial delays DIFFER from from-scratch delays";
    let cone_mean =
      if c1 > c0 then (s1 -. s0) /. float_of_int (c1 - c0) else 0.
    in
    (full_s /. trial_s, cone_mean)
  in
  let rows =
    with_metrics @@ fun () ->
    List.map
      (fun gates ->
        let nl, gen_s = time (fun () -> Gen.generate_family ~seed:7 ~gates ()) in
        let nodes = Netlist.node_count nl in
        let sta, full_sta_s = time (fun () -> Sta.analyze lib nl) in
        let eval_speedup, cone_mean = candidate_speedup nl sta in
        let inc_r, protect_s =
          time (fun () -> protect_strict ~seed:1 algorithm nl)
        in
        let protect_full_s =
          if gates > full_protect_ceiling then None
          else begin
            Unix.putenv "STTC_FULL_STA" "1";
            let full_r, full_s =
              time (fun () -> protect_strict ~seed:1 algorithm nl)
            in
            Unix.putenv "STTC_FULL_STA" "";
            require
              (hybrid_fingerprint inc_r = hybrid_fingerprint full_r)
              (Printf.sprintf
                 "incremental hybrid DIFFERS from full-mode hybrid at %d gates"
                 gates);
            Some full_s
          end
        in
        let rss_kb = peak_rss_kb () in
        Printf.printf
          "  %8d gates (%8d nodes)  gen %6.2fs  sta %6.3fs  protect %7.2fs  \
           %s  candidate %8.1fx (cone ~%.0f)  rss %d MB\n\
           %!"
          gates nodes gen_s full_sta_s protect_s
          (match protect_full_s with
          | Some f ->
              Printf.sprintf "full %7.2fs (%5.1fx, identical)" f
                (f /. protect_s)
          | None -> "full    --     (skipped)      ")
          eval_speedup cone_mean (rss_kb / 1024);
        let opt f = Option.fold ~none:J.Null ~some:(fun v -> J.Float (f v)) in
        [
          ("gates", J.Int gates);
          ("nodes", J.Int nodes);
          ("profile", J.String (Gen.profile_name Gen.Slike));
          ("gen_s", J.Float gen_s);
          ("full_sta_s", J.Float full_sta_s);
          ("protect_s", J.Float protect_s);
          ("protect_full_s", opt Fun.id protect_full_s);
          ("protect_speedup", opt (fun f -> f /. protect_s) protect_full_s);
          ("trial_eval_speedup", J.Float eval_speedup);
          ("trial_cone_nodes_mean", J.Float cone_mean);
          ("peak_rss_kb", J.Int rss_kb);
        ])
      sizes
  in
  record "scale" ~experiment:"scale-incremental-timing" ~seed:1
    [
      ("profile", J.String (Gen.profile_name Gen.Slike));
      ("clock_factor", J.Float clock_factor);
      ("full_protect_ceiling", J.Int full_protect_ceiling);
    ]
    rows

(* ---------- cross-technology backend record ---------- *)

(* Protects each circuit under every registered protection backend with
   the same seed, asserts the selections (the replaced gates) are
   identical across technologies — pricing differs, the flow's choices
   must not — then runs the combinational SAT attack under each
   backend's attacker model (TVD keys constrained to the known candidate
   family) and records overhead, keyspace and attack cost side by side. *)
let backend_bench () =
  section "Protection backends - STT-MRAM LUTs vs TVD camouflaged cells";
  let module Backend = Sttc_backend.Backend in
  let module Hybrid = Sttc_core.Hybrid in
  let module Netlist = Sttc_netlist.Netlist in
  let module Sat_attack = Sttc_attack.Sat_attack in
  let circuits = [ "s27"; "c17"; "s641"; "s1196" ] in
  let sat_timeout_s = 60. in
  let rows =
    List.concat_map
      (fun name ->
        let nl = Runner.build_circuit name in
        let per_backend =
          List.map
            (fun backend ->
              let r, protect_s =
                time (fun () ->
                    protect_strict ~backend ~seed:1
                      (Flow.Independent { count = 5 })
                      nl)
              in
              (backend, r, protect_s))
            Backend.all
        in
        (* selection is backend-independent: same netlist, same seed,
           same replaced gates whatever the cell technology *)
        let selections =
          List.map (fun (_, r, _) -> Hybrid.lut_ids r.Flow.hybrid) per_backend
        in
        require
          (match selections with
          | first :: rest -> List.for_all (( = ) first) rest
          | [] -> false)
          ("backend selections DIFFER on " ^ name);
        List.map
          (fun (backend, (r : Flow.result), protect_s) ->
            let hybrid = r.Flow.hybrid in
            let foundry = Hybrid.foundry_view hybrid in
            let arities =
              List.map
                (fun id ->
                  match Netlist.kind foundry id with
                  | Netlist.Lut { arity; _ } -> arity
                  | _ -> assert false)
                (Hybrid.lut_ids hybrid)
            in
            let keyspace = Backend.search_space backend ~arities in
            let candidates =
              Backend.sat_candidates backend foundry (Hybrid.lut_ids hybrid)
            in
            let outcome, attack_s =
              time (fun () -> Sat_attack.run ~timeout_s:sat_timeout_s ~candidates hybrid)
            in
            let verdict, iterations, queries =
              match outcome with
              | Sat_attack.Broken b -> ("broken", b.iterations, b.queries)
              | Sat_attack.Exhausted e ->
                  ("exhausted:" ^ e.reason, e.iterations, 0)
            in
            let o = r.Flow.overhead in
            Printf.printf
              "  %-6s %-4s protect %6.2fs  perf %+6.2f%%  power %+6.2f%%  \
               area %+6.2f%%  keys 10^%.1f  sat %-8s %6.2fs (%d it)\n%!"
              name (Backend.name backend) protect_s
              o.Sttc_core.Ppa.performance_pct o.Sttc_core.Ppa.power_pct
              o.Sttc_core.Ppa.area_pct
              (Sttc_util.Lognum.log10 keyspace)
              verdict attack_s iterations;
            [
              ("circuit", J.String name);
              ("backend", J.String (Backend.name backend));
              ("luts", J.Int (Hybrid.lut_count hybrid));
              ("protect_s", J.Float protect_s);
              ("performance_pct", J.Float o.Sttc_core.Ppa.performance_pct);
              ("power_pct", J.Float o.Sttc_core.Ppa.power_pct);
              ("area_pct", J.Float o.Sttc_core.Ppa.area_pct);
              ("keyspace_log10", J.Float (Sttc_util.Lognum.log10 keyspace));
              ("sat_verdict", J.String verdict);
              ("sat_s", J.Float attack_s);
              ("sat_iterations", J.Int iterations);
              ("sat_queries", J.Int queries);
            ])
          per_backend)
      circuits
  in
  record "backend" ~experiment:"protection-backends" ~seed:1
    [
      ("algorithm", J.String "independent");
      ("sat_timeout_s", J.Float sat_timeout_s);
    ]
    rows

(* ---------- driver ---------- *)

let sections =
  [ "parallel"; "sat"; "lint"; "campaign"; "serve"; "scale"; "backend" ]

(* argument mistakes exit with the same sysexits EX_USAGE code 64 the
   sttc CLI uses for its typed usage errors *)
let usage_fail msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline
    (Printf.sprintf
       "usage: main.exe [-j N] [--trace FILE] [--metrics FILE] [%s]..."
       (String.concat "|" sections));
  exit 64

let int_arg flag n =
  match int_of_string_opt n with
  | Some v -> v
  | None -> usage_fail (Printf.sprintf "%s needs an integer, got '%s'" flag n)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let jobs = ref 1 in
  let trace = ref None in
  let metrics = ref None in
  let rec strip = function
    | [] -> []
    | [ "-j" ] -> usage_fail "-j needs a worker count"
    | "-j" :: n :: rest ->
        jobs := int_arg "-j" n;
        strip rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
        jobs := int_arg "-j" (String.sub a 2 (String.length a - 2));
        strip rest
    | [ "--trace" ] -> usage_fail "--trace needs a file path"
    | "--trace" :: path :: rest ->
        trace := Some path;
        strip rest
    | [ "--metrics" ] -> usage_fail "--metrics needs a file path"
    | "--metrics" :: path :: rest ->
        metrics := Some path;
        strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip args in
  let jobs =
    if !jobs <= 0 then Sttc_util.Pool.default_jobs () else !jobs
  in
  (match
     List.find_opt (fun a -> not (List.mem a sections)) args
   with
  | Some unknown -> usage_fail ("unknown experiment '" ^ unknown ^ "'")
  | None -> ());
  let want name = args = [] || List.mem name args in
  Sttc_obs.Obs.with_run ?trace:!trace ?metrics:!metrics @@ fun () ->
  if want "parallel" then parallel ~jobs ();
  if want "sat" then sat_bench ();
  if want "lint" then lint_bench ();
  if want "campaign" then campaign_bench ();
  if want "serve" then serve_bench ~jobs ();
  if want "scale" then scale_bench ();
  if want "backend" then backend_bench ();
  Printf.printf "\nbench: done\n"
