module Runner = Sttc_experiments.Runner
module Metrics = Sttc_obs.Metrics
module Flow = Sttc_core.Flow
module Deadline = Sttc_util.Deadline

type outcome = { computed : int; restored : int; failed : int }

let kill_injection_env = "STTC_CAMPAIGN_KILL"

(* Section IV-A.3 hardening as a single manifest switch. *)
let hardened = { Flow.extra_inputs_per_lut = 2; absorb_drivers = true }

(* One protect run: build the benchmark, run the strict flow at [seed],
   and turn a [timeout_s] overrun or a crash into [Error reason], which
   becomes a footnoted row instead of killing the worker.  The budget is
   a {!Sttc_util.Deadline} polled at the protect loop boundaries; an
   expired enclosing deadline is not a crash and keeps propagating. *)
let run_unit ?timeout_s ?fraction ?hardening ~backend ~seed ~benchmark alg =
  Sttc_obs.Span.with_ "runner.unit" ~cat:"experiments"
    ~attrs:
      [ ("benchmark", benchmark); ("algorithm", Flow.algorithm_name alg) ]
  @@ fun () ->
  let t0 = Deadline.now_s () in
  let protect () =
    let nl = Runner.build_circuit benchmark in
    (Flow.run ~seed ?fraction ?hardening ~backend ~policy:Flow.Strict alg nl)
      .Flow.accepted
  in
  let outcome =
    try
      match timeout_s with
      | None -> Ok (protect ())
      | Some budget ->
          Result.map_error
            (fun `Expired -> Printf.sprintf "run: timeout after %.1fs" budget)
            (Deadline.within budget protect)
    with
    | Deadline.Expired as e -> raise e
    | Invalid_argument m | Failure m -> Error ("run: " ^ m)
    | e -> Error ("run: " ^ Printexc.to_string e)
  in
  Metrics.observe "runner.unit_seconds" (Deadline.now_s () -. t0);
  outcome

let kill_after ~shard =
  match Sys.getenv_opt kill_injection_env with
  | None -> None
  | Some spec -> (
      match String.split_on_char ':' spec with
      | [ s; n ] -> (
          match (int_of_string_opt s, int_of_string_opt n) with
          | Some s, Some n when s = shard && n >= 0 -> Some n
          | _ -> None)
      | _ -> None)

let run ?(allow_kill_injection = false) ~dir ~shard ~attempt () =
  match Manifest.load (Shard.manifest_path dir) with
  | Error e -> Error e
  | Ok m ->
      if shard < 0 || shard >= m.Manifest.shards then
        Error
          (Printf.sprintf "worker: shard %d out of range [0, %d)" shard
             m.Manifest.shards)
      else (
        Sttc_obs.Obs.enable ();
        let backend = Sttc_backend.Backend.find_exn m.Manifest.backend in
        let plan = Shard.assign m ~shard in
        let prior = Shard.load_checkpoint ~dir ~shard in
        let find_prior idx =
          List.find_opt (fun (r : Shard.row) -> r.index = idx) prior
        in
        let kill_at =
          if allow_kill_injection && attempt = 1 then kill_after ~shard
          else None
        in
        let beats = ref 0 in
        let bump () =
          incr beats;
          Sttc_obs.Export.write_text
            (Shard.heartbeat_path ~dir shard)
            (Printf.sprintf "%d.%d\n" attempt !beats)
        in
        bump ();
        let computed = ref 0 and restored = ref 0 in
        let rows = ref [] in
        List.iter
          (fun (r : Manifest.run) ->
            match find_prior r.index with
            | Some row ->
                incr restored;
                Metrics.incr "campaign.worker.restored_runs";
                rows := row :: !rows
            | None ->
                bump ();
                let result =
                  run_unit ?timeout_s:m.Manifest.timeout_s
                    ?fraction:r.config.fraction
                    ?hardening:(if r.config.harden then Some hardened else None)
                    ~backend ~seed:r.seed ~benchmark:r.circuit r.algorithm
                in
                rows := Shard.of_result r result :: !rows;
                incr computed;
                Metrics.incr "campaign.worker.runs";
                Shard.save_checkpoint ~dir ~shard (List.rev !rows);
                bump ();
                match kill_at with
                | Some n when !computed >= n ->
                    (* deterministic mid-shard crash for the CI gate *)
                    Unix.kill (Unix.getpid ()) Sys.sigkill
                | _ -> ())
          plan;
        let rows = List.rev !rows in
        Shard.save_result ~dir ~shard rows;
        Sttc_obs.Export.write_file
          (Shard.metrics_path ~dir shard)
          (Sttc_obs.Export.metrics_json_of_snapshot (Metrics.snapshot ()));
        let failed =
          List.length
            (List.filter
               (fun (r : Shard.row) ->
                 match r.outcome with Shard.Failed _ -> true | Shard.Done _ -> false)
               rows)
        in
        Ok { computed = !computed; restored = !restored; failed })
