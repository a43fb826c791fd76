(* The repository's benchmark, declared in BENCHMARK.json.  One process
   runs one workload, one operation at a time on one domain:

     main.exe --workload protect|signoff|attack|lint-sem --seed N
              --seconds S --trace 0|1
     main.exe --self-test   smoke sizes, metric names, corrupted answers
     main.exe --record      print answers.ml for the current program

   Its last line of output is {"correct", "attempted", "failed",
   "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
   with --trace 1.  perfbench/run.py builds it from source and runs it
   from the repository root; perfbench/README.md describes the metrics. *)

module W = Workloads
module Metrics = Sttc_obs.Metrics
module Span = Sttc_obs.Span
module J = Sttc_obs.Json

let now = Sttc_util.Pool.now_s

let die ?(code = 2) fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit code)
    fmt

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* VmHWM: the process high-water mark *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> die "no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* A timed run must measure the program as users run it. *)
let assert_untraced () =
  if Sttc_obs.Control.enabled () then
    die "observability recording is on: a timed run would measure another program";
  match Sys.getenv_opt "STTC_FULL_STA" with
  | Some _ -> die "STTC_FULL_STA is set: a timed run would measure another program"
  | None -> ()

(* ---------- spans ---------- *)

(* The benchmark's own spans (category "perfbench") with their operation
   id and self time: duration minus the benchmark spans they enclose.
   Spans nest by call order on the one domain the benchmark uses. *)
type span = { name : string; op : int; self_s : float }

let own_spans () =
  let own =
    List.filter_map
      (function
        | Span.Complete { name; cat = "perfbench"; ts_us; dur_us; attrs; _ } ->
            let op = int_of_string (List.assoc "op" attrs) in
            Some (name, op, ts_us, ts_us +. dur_us)
        | Span.Complete _ | Span.Instant _ -> None)
      (Span.events ())
  in
  (* open spans, innermost first, as (stop, start); a span's children
     add their durations under its (start, stop) *)
  let rec close stack ts =
    match stack with
    | (stop, _) :: rest when stop <= ts -> close rest ts
    | _ -> stack
  in
  let children = Hashtbl.create 64 in
  let _ =
    List.fold_left
      (fun stack (_, _, start, stop) ->
        let stack = close stack start in
        (match stack with
        | (pstop, pstart) :: _ ->
            let key = (pstart, pstop) in
            Hashtbl.replace children key
              (stop -. start +. Option.value ~default:0. (Hashtbl.find_opt children key))
        | [] -> ());
        (stop, start) :: stack)
      [] own
  in
  List.map
    (fun (name, op, start, stop) ->
      let inner = Option.value ~default:0. (Hashtbl.find_opt children (start, stop)) in
      { name; op; self_s = (stop -. start -. inner) *. 1e-6 })
    own

let total_self ?(keep = fun _ -> true) spans =
  List.fold_left (fun acc s -> if keep s then acc +. s.self_s else acc) 0. spans

(* ---------- set-up ---------- *)

(* the inputs, and the time of each job's set-up step *)
let time_setup kind size =
  Gc.full_major ();
  W.setup kind size

(* Set-up repetitions run outside the timed phases, as operations
   -2, -3, ... which keeps their spans apart. *)
type setups = {
  first : float list;  (** the first set-up's step times *)
  mutable count : int;
  mutable reps : (int * float list) list;  (** after pass [i], step times *)
}

let repeat_setup kind size setups ~pass =
  setups.count <- setups.count + 1;
  W.op := -(setups.count + 1);
  setups.reps <- (pass, snd (time_setup kind size)) :: setups.reps;
  W.op := -1

(* In a timed run set-up is repeated after every pass, for about
   [setup_share] of the pass's time and at least once, so that its
   repetitions spread over the run like the passes.  Before the first
   pass their garbage raised peak_rss_mb.  The repetitions after the
   passes of each third of the run form a round.  Like wall_s, setup_s
   is built from short steps, each job's set-up step: for each step the
   median over the rounds of the round's fastest time, summed over the
   steps (see perfbench/README.md). *)
let setup_share = 0.15
let setup_rounds = 3

let setup_after_pass kind size setups ~pass ~wall_s =
  let first_s = List.fold_left ( +. ) 0. setups.first in
  for _ = 1 to max 1 (int_of_float (setup_share *. wall_s /. first_s)) do
    repeat_setup kind size setups ~pass
  done

let setup_s setups ~passes =
  let fastest round =
    List.fold_left
      (fun acc (pass, steps) ->
        if pass * setup_rounds / passes = round then List.map2 Float.min acc steps else acc)
      (List.map (fun _ -> infinity) setups.first)
      setups.reps
  in
  let rounds = List.init setup_rounds fastest in
  List.mapi (fun i _ -> median (List.map (fun r -> List.nth r i) rounds)) setups.first
  |> List.fold_left ( +. ) 0.

(* ---------- passes ---------- *)

type pass = {
  wall_s : float;  (** the timed phase: every operation, back to back *)
  op_s : float list;  (** per job, in job order *)
  failures : string list;
  minor_words : float;  (** allocated during the timed phase *)
  major_collections : int;
  vm_hwm_mb : float;  (** after the timed phase, before the checks *)
}

let next_op = ref 0

(* The job order is fixed: shuffling it per seed moved peak_rss_mb by
   5-8 % from run to run, through where the GC happened to run. *)
let run_pass kind ~seed inputs =
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let outcomes =
    Array.map
      (fun input ->
        let op = !next_op in
        incr next_op;
        W.op := op;
        let s = now () in
        let answer =
          match W.run kind input with
          | a -> Ok a
          | exception e -> Error (Printexc.to_string e)
        in
        (op, input, answer, now () -. s))
      (Array.of_list inputs)
  in
  let wall_s = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let vm_hwm_mb = peak_rss_mb () in
  W.op := -1;
  let failures =
    List.filter_map
      (fun (op, input, answer, _) ->
        let verdict =
          match answer with
          | Error m -> Error (W.job_id input.W.job ^ " raised " ^ m)
          | Ok a -> W.check ~seed:(Hashtbl.hash (seed, op)) input a
        in
        Result.fold ~ok:(fun () -> None) ~error:Option.some verdict)
      (Array.to_list outcomes)
  in
  {
    wall_s;
    op_s = List.map (fun (_, _, _, dt) -> dt) (Array.to_list outcomes);
    failures;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    vm_hwm_mb;
  }

(* Passes until the timed phases would overrun [seconds]; at least
   [min_passes].  The checks, and [after] each pass, run outside that
   budget. *)
let min_passes = 3

let run_passes ?(after = fun ~pass:_ ~wall_s:_ -> ()) kind ~seed ~seconds inputs =
  let rec go acc n measured =
    match acc with
    | last :: _ when n >= min_passes && measured +. last.wall_s > seconds -> List.rev acc
    | _ ->
        let p = run_pass kind ~seed inputs in
        after ~pass:n ~wall_s:p.wall_s;
        go (p :: acc) (n + 1) (measured +. p.wall_s)
  in
  go [] 0 0.

(* ---------- the measurement ---------- *)

type run = {
  attempted : int;
  failures : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  passes : pass list;
  setups : int;
  jobs : string list;
}

let tally passes =
  ( List.fold_left (fun n p -> n + List.length p.op_s) 0 passes,
    List.concat_map (fun (p : pass) -> p.failures) passes )

let walls passes = List.map (fun p -> p.wall_s) passes

(* Each job's fastest time over the passes.  Other tenants of the shared
   host slow some passes more than others; a job's fastest run is the
   one they slowed least, and it moves little between runs. *)
let fastest_per_job passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i _ -> List.fold_left (fun m p -> Float.min m (List.nth p.op_s i)) infinity passes)
        first.op_s

let end_to_end kind size ~seed ~seconds inputs ~first_setup =
  let setups = { first = first_setup; count = 0; reps = [] } in
  let passes =
    run_passes kind ~seed ~seconds inputs ~after:(setup_after_pass kind size setups)
  in
  let setup_s = setup_s setups ~passes:(List.length passes) in
  let attempted, failures = tally passes in
  let fastest = fastest_per_job passes in
  {
    attempted;
    failures;
    passes;
    setups = setups.count;
    jobs = List.map (fun i -> W.job_id i.W.job) inputs;
    metrics =
      [
        ("wall_s", List.fold_left ( +. ) 0. fastest, "s");
        ("op_p50_s", median fastest, "s");
        ("setup_s", setup_s, "s");
        (* after set-up and one pass: later passes raised it a little
           each, so it followed the machine-dependent pass count *)
        ("peak_rss_mb", (List.hd passes).vm_hwm_mb, "MB");
      ];
  }

let counter_delta before after name =
  float_of_int (Metrics.counter_value after name - Metrics.counter_value before name)

let histogram_sum snap keep =
  List.fold_left
    (fun (count, sum) (name, point) ->
      match point with
      | Metrics.Histogram s when keep name ->
          (count + s.Metrics.count, sum +. s.Metrics.sum)
      | _ -> (count, sum))
    (0, 0.) snap

let histogram_delta before after keep =
  let c0, s0 = histogram_sum before keep and c1, s1 = histogram_sum after keep in
  (float_of_int (c1 - c0), s1 -. s0)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Half the budget untraced (the overhead baseline and the GC deltas),
   half traced: the benchmark's spans plus the program's own counters,
   in the program's own recorder.  Set-up is repeated for
   [setup_budget_s] after the traced passes, at least 3 times, recorded
   too. *)
let setup_budget_s = 1.0

let per_layer kind size ~seed ~seconds inputs ~first_setup =
  let half = seconds /. 2. in
  let untraced = run_passes kind ~seed ~seconds:half inputs in
  let first_traced = !next_op in
  W.Ledger.reset ();
  Sttc_obs.Obs.reset ();
  Sttc_obs.Obs.enable ();
  let snap0 = Metrics.snapshot () in
  let traced = run_passes kind ~seed ~seconds:half inputs in
  let snap1 = Metrics.snapshot () in
  (* recorded set-up repetitions, for netlist.build_s *)
  let setups = { first = first_setup; count = 0; reps = [] } in
  let start = now () in
  while setups.count < 3 || now () -. start < setup_budget_s do
    repeat_setup kind size setups ~pass:0
  done;
  Sttc_obs.Obs.disable ();
  if Span.dropped () > 0 then
    die "%d spans were dropped: the recorder's buffer is full" (Span.dropped ());
  let spans = own_spans () in
  let in_passes = List.filter (fun s -> s.op >= first_traced) spans in
  let build_s =
    median
      (List.init setups.count (fun i ->
           total_self
             ~keep:(fun s -> s.name = "netlist.build" && s.op = -(i + 2))
             spans))
  in
  let n = float_of_int (List.length traced) in
  let untraced_mean f =
    List.fold_left (fun acc p -> acc +. f p) 0. untraced
    /. float_of_int (List.length untraced)
  in
  let per_pass x = x /. n in
  let layer name = per_pass (total_self ~keep:(fun s -> s.name = name) in_passes) in
  let counter name = per_pass (counter_delta snap0 snap1 name) in
  let count r = per_pass (float_of_int !r) in
  let cone_count, cone_nodes =
    histogram_delta snap0 snap1 (String.equal "sta.retime.cone_nodes")
  in
  let _, solver_s =
    histogram_delta snap0 snap1 (fun name ->
        String.starts_with ~prefix:"lint.sem." name
        && String.ends_with ~suffix:".solver_seconds" name)
  in
  let lint_solver_s = per_pass solver_s in
  let decisions, propagations, conflicts =
    match kind with
    | W.Lint_sem ->
        (counter "sat.decisions", counter "sat.propagations", counter "sat.conflicts")
    | W.Protect | W.Signoff | W.Attack ->
        (count W.Ledger.decisions, count W.Ledger.propagations, count W.Ledger.conflicts)
  in
  let sat_s =
    match kind with
    | W.Protect -> 0.
    | W.Signoff -> layer "sim.signoff"
    | W.Attack -> layer "attack.sat"
    | W.Lint_sem -> lint_solver_s
  in
  let dips = count W.Ledger.dips in
  let queries = counter "lint.sem.queries" and cutoffs = counter "lint.sem.cutoffs" in
  (* pass times as wall_s takes them: a median pass followed the host *)
  let pass_s passes = List.fold_left ( +. ) 0. (fastest_per_job passes) in
  let untraced_wall = pass_s untraced and traced_wall = pass_s traced in
  let all_passes = untraced @ traced in
  let attempted, failures = tally all_passes in
  let trace_file = Printf.sprintf ".bench_build/trace/%s.trace.json" (W.name kind) in
  mkdir_p (Filename.dirname trace_file);
  Sttc_obs.Export.write_file trace_file (Sttc_obs.Export.trace_json ());
  {
    attempted;
    failures;
    passes = all_passes;
    setups = setups.count;
    jobs = List.map (fun i -> W.job_id i.W.job) inputs;
    metrics =
      [
        ("netlist.build_s", build_s, "s");
        ("core.protect_s", layer "core.protect", "s");
        ("core.selection_s", per_pass !W.Ledger.selection_s, "s");
        ("core.provision_s", layer "core.provision", "s");
        ("core.luts", count W.Ledger.luts, "count");
        ("core.timing_early_out", counter "select.timing_early_out", "count");
        ("analysis.retime_cone", counter "sta.retime.cone", "count");
        ("analysis.retime_full", counter "sta.retime.full", "count");
        ("analysis.retime_cone_nodes_mean", ratio cone_nodes cone_count, "nodes");
        ("analysis.activity_refine_cone", counter "activity.refine.cone", "count");
        ("analysis.activity_refine_full", counter "activity.refine.full", "count");
        ("sim.signoff_s", layer "sim.signoff", "s");
        ("logic.sat.decisions", decisions, "count");
        ("logic.sat.propagations", propagations, "count");
        ("logic.sat.conflicts", conflicts, "count");
        ("logic.sat.reduce_events", counter "sat.reduce_events", "count");
        ("logic.sat.decisions_per_s", ratio decisions sat_s, "1/s");
        ("logic.sat.props_per_s", ratio propagations sat_s, "1/s");
        ("attack.sat_s", layer "attack.sat", "s");
        ("attack.verify_s", layer "attack.verify", "s");
        ("attack.dip_iterations", dips, "count");
        ("attack.oracle_queries", count W.Ledger.oracle_queries, "count");
        ("attack.s_per_dip", ratio (layer "attack.sat") dips, "s");
        ("lint.sem_s", layer "lint.sem", "s");
        ("lint.sem_solver_s", lint_solver_s, "s");
        ("lint.sem_queries", queries, "count");
        ("lint.sem_cutoffs", cutoffs, "count");
        ("lint.sem_cutoff_ratio", ratio cutoffs queries, "ratio");
        ("gc.minor_mwords", untraced_mean (fun p -> p.minor_words) /. 1e6, "Mwords");
        ( "gc.major_collections",
          untraced_mean (fun p -> float_of_int p.major_collections),
          "count" );
        ( "gc.heap_peak_mb",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1048576.,
          "MB" );
        ( "obs.trace_overhead_pct",
          100. *. ratio (traced_wall -. untraced_wall) untraced_wall,
          "%" );
        ( "obs.layer_coverage",
          ratio (total_self in_passes) (List.fold_left ( +. ) 0. (walls traced)),
          "ratio" );
      ];
  }

let measure kind size ~seed ~seconds ~trace =
  assert_untraced ();
  let inputs, first_setup = time_setup kind size in
  (match W.check_setup ~seed inputs with
  | [] -> ()
  | failures -> die ~code:1 "set-up failed: %s" (String.concat "; " failures));
  if trace then per_layer kind size ~seed ~seconds inputs ~first_setup
  else end_to_end kind size ~seed ~seconds inputs ~first_setup

(* ---------- the metric names BENCHMARK.json declares ---------- *)

let declared section =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error m -> die "cannot read BENCHMARK.json: %s" m
  in
  let entry e =
    match (J.member "name" e, J.member "unit" e) with
    | Some (J.String n), Some (J.String u) -> (n, u)
    | _ -> die "BENCHMARK.json: %s entry without a name and a unit" section
  in
  match J.of_string text with
  | Error m -> die "BENCHMARK.json: %s" m
  | Ok doc -> (
      match Option.bind (J.member section doc) J.to_list_opt with
      | Some entries -> List.map entry entries
      | None -> die "BENCHMARK.json has no %s list" section)

let valid_name s =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && String.for_all ok s
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)

(* Every printed metric is declared, with its unit, and follows the
   naming rule; every declared metric is printed. *)
let check_names ~trace metrics =
  let section = if trace then "per_layer" else "end_to_end" in
  let decl = declared section in
  List.iter
    (fun (name, _, unit) ->
      if not (valid_name name) then die "metric name %S breaks the naming rule" name;
      match List.assoc_opt name decl with
      | None -> die "metric %s is not declared in BENCHMARK.json %s" name section
      | Some u when u <> unit -> die "metric %s: unit %s, BENCHMARK.json says %s" name unit u
      | Some _ -> ())
    metrics;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m, _, _) -> m = name) metrics) then
        die "BENCHMARK.json %s metric %s is not printed" section name)
    decl

let result_line r =
  J.to_string ~minify:true
    (J.Obj
       [
         ("correct", J.Bool (r.failures = []));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int (List.length r.failures));
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]))
                r.metrics) );
       ])

let report kind r =
  List.iter (fun m -> Printf.eprintf "  FAILED %s\n" m) r.failures;
  Printf.eprintf
    "%s: %d operations in %d passes, %d set-ups; timed phase of each pass: %s\n"
    (W.name kind) r.attempted (List.length r.passes) r.setups
    (String.concat " " (List.map (Printf.sprintf "%.3fs") (walls r.passes)));
  Printf.eprintf "  %-34s %14s %14s\n" "job" "fastest s" "median s";
  List.iteri
    (fun i (id, fastest) ->
      Printf.eprintf "  %-34s %14.6f %14.6f\n" id fastest
        (median (List.map (fun p -> List.nth p.op_s i) r.passes)))
    (List.combine r.jobs (fastest_per_job r.passes));
  List.iter (fun (name, v, unit) -> Printf.eprintf "  %-34s %14.6g %s\n" name v unit) r.metrics;
  Printf.eprintf "  %-34s %14.6g ratio (%d of %d operations)\n%!" "fail_frac"
    (ratio (float_of_int (List.length r.failures)) (float_of_int r.attempted))
    (List.length r.failures) r.attempted

(* ---------- self-test ---------- *)

let self_test () =
  let ok = ref true in
  List.iter
    (fun kind ->
      List.iter
        (fun trace ->
          let r = measure kind W.Smoke ~seed:1 ~seconds:0. ~trace in
          check_names ~trace r.metrics;
          if r.failures <> [] then begin
            report kind r;
            ok := false
          end
          else
            Printf.eprintf "self-test: %s --trace %d: %d operations checked\n"
              (W.name kind) (Bool.to_int trace) r.attempted)
        [ false; true ])
    W.all;
  (* a check that passes everything would pass these too *)
  let must_fail what verdict =
    match verdict with
    | Ok () ->
        Printf.eprintf "self-test: %s passed the check\n" what;
        ok := false
    | Error m -> Printf.eprintf "self-test: %s caught: %s\n" what m
  in
  let complement = List.map (fun (id, t) -> (id, Sttc_logic.Truth.lnot t)) in
  let job = { W.source = W.S27; algorithm = Sttc_core.Flow.Dependent } in
  let netlist = W.build job.W.source in
  let input = { W.job; netlist; prepared = Some (W.protect job netlist) } in
  let r = Option.get input.W.prepared in
  let h = r.Sttc_core.Flow.hybrid in
  let corrupted_text =
    Sttc_core.Provision.of_hybrid h
    |> List.map (fun (e : Sttc_core.Provision.entry) ->
           { e with config = Sttc_logic.Truth.lnot e.config })
    |> Sttc_core.Provision.to_string
  in
  must_fail "a corrupted provisioning bitstream"
    (W.check ~seed:1 input
       (W.Signed_off
          {
            result = r;
            provisioned =
              Sttc_core.Provision.apply (Sttc_core.Hybrid.foundry_view h)
                (Sttc_core.Provision.parse corrupted_text);
            equivalent = true;
          }));
  must_fail "another job's hybrid"
    (W.check ~seed:1
       { input with job = { job with algorithm = W.independent } }
       (W.Protected r));
  (match W.run W.Attack input with
  | W.Attacked { outcome = Sttc_attack.Sat_attack.Broken b; _ } ->
      let key = complement b.bitstream in
      must_fail "a corrupted attack key (verified by verify_break)"
        (W.check ~seed:1 input
           (W.Attacked
              {
                outcome = Sttc_attack.Sat_attack.Broken { b with bitstream = key };
                verified = Sttc_attack.Sat_attack.verify_break h key;
              }));
      must_fail "a corrupted attack key (claimed verified)"
        (W.check ~seed:1 input
           (W.Attacked
              {
                outcome = Sttc_attack.Sat_attack.Broken { b with bitstream = key };
                verified = true;
              }))
  | _ ->
      prerr_endline "self-test: the smoke attack did not break s27";
      ok := false);
  (* the smoke circuits have no SEM findings to drop; s820 has 28 *)
  let lint_job = { W.source = W.Twin "s820"; algorithm = W.independent } in
  let lint_netlist = W.build lint_job.W.source in
  let lint_input =
    { W.job = lint_job; netlist = lint_netlist;
      prepared = Some (W.protect lint_job lint_netlist) }
  in
  (match W.run W.Lint_sem lint_input with
  | W.Linted (_ :: rest) ->
      must_fail "a lint run missing one finding" (W.check ~seed:1 lint_input (W.Linted rest))
  | _ ->
      prerr_endline "self-test: the s820 lint run has no findings";
      ok := false);
  if !ok then prerr_endline "self-test: ok"
  else die ~code:1 "self-test failed"

(* ---------- recording the known answers ---------- *)

let record () =
  let jobs size = List.concat_map (fun k -> W.jobs k size) W.all in
  let distinct =
    List.fold_left
      (fun acc j -> if List.mem_assoc (W.job_id j) acc then acc else (W.job_id j, j) :: acc)
      [] (jobs W.Full @ jobs W.Smoke)
    |> List.rev
  in
  let netlist = W.netlist_cache () in
  let results = List.map (fun (id, j) -> (id, j, W.protect j (netlist j.W.source))) distinct in
  let lint_ids = List.map W.job_id (W.jobs W.Lint_sem W.Full @ W.jobs W.Lint_sem W.Smoke) in
  print_string
    "(* Known answers, recorded with [main.exe --record] from the program\n\
    \   at the commit that last changed protect output on purpose: LUT\n\
    \   count and digest of foundry view plus bitstream per protect job,\n\
    \   and (findings, errors) of the SEM pack per lint-sem job. *)\n\n\
     let hybrids =\n  [\n";
  List.iter
    (fun (id, _, r) ->
      Printf.printf "    (%S, (%d, %S));\n" id
        (Sttc_core.Hybrid.lut_count r.Sttc_core.Flow.hybrid)
        (W.fingerprint r))
    results;
  print_string "  ]\n\nlet lint =\n  [\n";
  List.iter
    (fun (id, _, r) ->
      if List.mem id lint_ids then begin
        let h = r.Sttc_core.Flow.hybrid in
        let ds =
          W.Sem.run
            (W.Sem.view ~luts:(W.Hybrid.lut_ids h) ~configs:(W.Hybrid.bitstream h)
               (W.Hybrid.foundry_view h))
        in
        Printf.printf "    (%S, (%d, %d));\n" id (List.length ds) (W.Diagnostic.errors ds)
      end)
    results;
  print_string "  ]\n"

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME protect, signoff, attack or lint-sem");
      ("--seed", Arg.Set_int seed, "N random-simulation vectors of the checks (default 1)");
      ("--seconds", Arg.Set_float seconds, "S seconds of timed passes (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " run the self-test");
      ("--record", Arg.Unit (fun () -> mode := `Record), " print answers.ml");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "perfbench: see perfbench/README.md";
  match !mode with
  | `Self_test -> self_test ()
  | `Record -> record ()
  | `Run ->
      let kind =
        match W.of_name !workload with
        | Some k -> k
        | None -> die "--workload must be one of protect, signoff, attack, lint-sem"
      in
      let trace =
        match !trace with 0 -> false | 1 -> true | _ -> die "--trace must be 0 or 1"
      in
      let r = measure kind W.Full ~seed:!seed ~seconds:!seconds ~trace in
      check_names ~trace r.metrics;
      report kind r;
      print_endline (result_line r);
      if r.failures <> [] then exit 1
