(* The four workloads: their job lists, set-up, timed operations, and the
   checks that hold every operation to a known answer from an engine
   other than the one under test.  perfbench/README.md says why each
   workload exists. *)

module Flow = Sttc_core.Flow
module Hybrid = Sttc_core.Hybrid
module Provision = Sttc_core.Provision
module Netlist = Sttc_netlist.Netlist
module Gen = Sttc_netlist.Generator
module Profiles = Sttc_netlist.Iscas_profiles
module Equiv = Sttc_sim.Equiv
module Sat = Sttc_logic.Sat
module Sat_attack = Sttc_attack.Sat_attack
module Sem = Sttc_lint.Semantic_rules
module Diagnostic = Sttc_lint.Diagnostic

type kind = Protect | Signoff | Attack | Lint_sem

let all = [ Protect; Signoff; Attack; Lint_sem ]

let name = function
  | Protect -> "protect"
  | Signoff -> "signoff"
  | Attack -> "attack"
  | Lint_sem -> "lint-sem"

let of_name s = List.find_opt (fun k -> name k = s) all

type size = Full | Smoke

type source = Twin of string | Family of Gen.profile * int | S27 | C17

type job = { source : source; algorithm : Flow.algorithm }

let design = function
  | Twin n -> n
  | Family (p, gates) -> Printf.sprintf "%s-%d" (Gen.profile_name p) gates
  | S27 -> "s27"
  | C17 -> "c17"

let job_id j = design j.source ^ "/" ^ Flow.algorithm_name j.algorithm

(* Netlists and protect seeds are fixed, so the known answers and the
   work per pass do not depend on the benchmark's --seed. *)
let protect_seed = Sttc_experiments.Runner.master_seed
let family_seed = 7
let independent = Flow.Independent { count = 5 }
let parametric = Flow.Parametric Sttc_core.Algorithms.default_parametric

let tight_parametric =
  Flow.Parametric
    { Sttc_core.Algorithms.default_parametric with clock_factor = 1.02 }

let jobs kind size =
  let each sources algorithms =
    List.concat_map
      (fun source -> List.map (fun algorithm -> { source; algorithm }) algorithms)
      sources
  in
  let twins = List.map (fun n -> Twin n) in
  let three = Flow.default_algorithms in
  match (kind, size) with
  | Protect, Full ->
      each
        (twins [ "s641"; "s820"; "s832"; "s953"; "s1196"; "s1238"; "s1488"; "s5378a" ])
        three
      @ each
          [
            Family (Gen.Slike, 2_500);
            Family (Gen.Wide, 2_500);
            Family (Gen.Fanout_heavy, 2_500);
            Family (Gen.Deep, 1_500);
          ]
          [ tight_parametric ]
  | Protect, Smoke ->
      each [ S27; C17 ] three @ each [ Family (Gen.Slike, 400) ] [ tight_parametric ]
  | Signoff, Full ->
      each [ Twin "s641" ] three @ each [ Twin "s820" ] [ independent; Flow.Dependent ]
  | Signoff, Smoke -> each [ S27; C17 ] three
  | Attack, Full ->
      each [ S27 ] [ Flow.Dependent ]
      @ each [ Family (Gen.Slike, 200); Family (Gen.Deep, 600) ] [ independent ]
  | Attack, Smoke -> each [ S27; C17 ] [ Flow.Dependent ]
  | Lint_sem, Full ->
      each (twins [ "s820"; "s832"; "s953"; "s1488" ]) [ independent ]
  | Lint_sem, Smoke -> each [ S27; C17 ] [ independent ]

(* ---------- spans and per-layer counts the operations report ---------- *)

(* The operation the spans below belong to: its index in the run, or a
   negative set-up repetition. *)
let op = ref (-1)

(* A span around one of the benchmark's own calls into a layer's public
   function, in the program's own recorder.  While recording is off it
   costs an atomic load and the attribute's allocation. *)
let span name f =
  Sttc_obs.Span.with_ ~cat:"perfbench" ~attrs:[ ("op", string_of_int !op) ] name f

module Ledger = struct
  let selection_s = ref 0.
  let luts = ref 0
  let decisions = ref 0
  let propagations = ref 0
  let conflicts = ref 0
  let dips = ref 0
  let oracle_queries = ref 0

  let reset () =
    selection_s := 0.;
    luts := 0;
    decisions := 0;
    propagations := 0;
    conflicts := 0;
    dips := 0;
    oracle_queries := 0

  let add_sat (s : Sat.stats) =
    decisions := !decisions + s.Sat.decisions;
    propagations := !propagations + s.Sat.propagations;
    conflicts := !conflicts + s.Sat.conflicts

  let add_protect (r : Flow.result) =
    selection_s := !selection_s +. r.Flow.selection_seconds;
    luts := !luts + Hybrid.lut_count r.Flow.hybrid
end

(* ---------- set-up ---------- *)

type input = {
  job : job;
  netlist : Netlist.t;
  prepared : Flow.result option;
      (** hybrid protected during set-up (attack, lint-sem) *)
}

let build source =
  span "netlist.build" (fun () ->
      let nl =
        match source with
        | Twin n -> Profiles.build_by_name n
        | Family (profile, gates) ->
            Gen.generate_family ~seed:family_seed ~profile ~gates ()
        | S27 -> Sttc_netlist.Iscas_data.s27 ()
        | C17 -> Sttc_netlist.Iscas_data.c17 ()
      in
      Netlist.warm nl;
      nl)

let protect job nl =
  span "core.protect" (fun () ->
      (Flow.run ~seed:protect_seed ~policy:Flow.Strict job.algorithm nl)
        .Flow.accepted)

(* [build], once per source *)
let netlist_cache () =
  let netlists = Hashtbl.create 16 in
  fun source ->
    match Hashtbl.find_opt netlists source with
    | Some nl -> nl
    | None ->
        let nl = build source in
        Hashtbl.add netlists source nl;
        nl

(* The inputs, and the time of each job's set-up step (building its
   netlist unless an earlier job did, and protecting its hybrid), in job
   order *)
let setup kind size =
  let netlist = netlist_cache () in
  List.map
    (fun job ->
      let t0 = Sttc_util.Pool.now_s () in
      let netlist = netlist job.source in
      let prepared =
        match kind with
        | Protect | Signoff -> None
        | Attack | Lint_sem ->
            let r = protect job netlist in
            let h = r.Flow.hybrid in
            List.iter Netlist.warm
              [ Hybrid.original h; Hybrid.foundry_view h; Hybrid.programmed h ];
            Some r
      in
      ({ job; netlist; prepared }, Sttc_util.Pool.now_s () -. t0))
    (jobs kind size)
  |> List.split

let prepared_hybrid input =
  match input.prepared with
  | Some r -> r.Flow.hybrid
  | None -> invalid_arg (job_id input.job ^ ": no hybrid prepared in set-up")

(* ---------- the timed operation ---------- *)

type answer =
  | Protected of Flow.result
  | Signed_off of {
      result : Flow.result;
      provisioned : Netlist.t;  (** foundry view programmed from the text *)
      equivalent : bool;
    }
  | Attacked of { outcome : Sat_attack.outcome; verified : bool }
  | Linted of Diagnostic.t list

let provision h =
  span "core.provision" (fun () ->
      Provision.of_hybrid h |> Provision.to_string |> Provision.parse
      |> Provision.apply (Hybrid.foundry_view h))

let run kind input =
  match kind with
  | Protect ->
      let r = protect input.job input.netlist in
      Ledger.add_protect r;
      Protected r
  | Signoff ->
      let r = protect input.job input.netlist in
      Ledger.add_protect r;
      let provisioned = provision r.Flow.hybrid in
      let equivalent =
        span "sim.signoff" (fun () -> Flow.sign_off ~method_:`Sat r)
      in
      Ledger.add_sat (Sat.last_stats ());
      Signed_off { result = r; provisioned; equivalent }
  | Attack ->
      let h = prepared_hybrid input in
      let outcome = span "attack.sat" (fun () -> Sat_attack.run h) in
      let verified =
        match outcome with
        | Sat_attack.Broken b ->
            Ledger.add_sat b.stats;
            Ledger.dips := !Ledger.dips + b.iterations;
            Ledger.oracle_queries := !Ledger.oracle_queries + b.queries;
            span "attack.verify" (fun () ->
                Sat_attack.verify_break h b.bitstream)
        | Sat_attack.Exhausted e ->
            Ledger.add_sat e.stats;
            Ledger.dips := !Ledger.dips + e.iterations;
            false
      in
      Attacked { outcome; verified }
  | Lint_sem ->
      let h = prepared_hybrid input in
      Linted
        (span "lint.sem" (fun () ->
             Sem.run
               (Sem.view ~luts:(Hybrid.lut_ids h) ~configs:(Hybrid.bitstream h)
                  (Hybrid.foundry_view h))))

(* ---------- checks ---------- *)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* bit-parallel random simulation: a different engine from the SAT
   miters behind sign-off, verify_break and the attack *)
let check_equivalent ~seed ~what original candidate =
  match Equiv.check_random ~seed original candidate with
  | Equiv.Equivalent -> Ok ()
  | Equiv.Different f -> fail "%s differs from the original at %s" what f.signal
  | Equiv.Inconclusive m -> fail "%s: simulation inconclusive (%s)" what m

let fingerprint (r : Flow.result) =
  let h = r.Flow.hybrid in
  Digest.to_hex
    (Digest.string
       (Sttc_netlist.Bench_io.to_string (Hybrid.foundry_view h)
       ^ Provision.to_string (Provision.of_hybrid h)))

(* (job, fingerprint) pairs already simulated in this process: a hybrid
   byte-identical to one that passed is not simulated again, which keeps
   the checks of the 3e4-gate families from dominating a run *)
let simulated = Hashtbl.create 64

let check_hybrid ~seed job (r : Flow.result) =
  let id = job_id job in
  let h = r.Flow.hybrid in
  let digest = fingerprint r in
  let* () =
    match List.assoc_opt id Answers.hybrids with
    | None -> fail "%s: no recorded answer" id
    | Some (luts, _) when Hybrid.lut_count h <> luts ->
        fail "%s: %d LUTs, expected %d" id (Hybrid.lut_count h) luts
    | Some (_, recorded) when digest <> recorded ->
        fail "%s: foundry view or bitstream differs from the recorded one" id
    | Some _ -> Ok ()
  in
  if Hashtbl.mem simulated (id, digest) then Ok ()
  else
    let* () =
      check_equivalent ~seed ~what:(id ^ " programmed view") (Hybrid.original h)
        (Hybrid.programmed h)
    in
    Hashtbl.replace simulated (id, digest) ();
    Ok ()

let check_attack ~seed job h outcome ~verified =
  let id = job_id job in
  match outcome with
  | Sat_attack.Exhausted e -> fail "%s: attack exhausted (%s)" id e.reason
  | Sat_attack.Broken _ when not verified ->
      fail "%s: verify_break rejects the recovered key" id
  | Sat_attack.Broken b ->
      check_equivalent ~seed ~what:(id ^ " recovered key") (Hybrid.original h)
        (Hybrid.program_with h b.bitstream)

let check_lint job diagnostics =
  let id = job_id job in
  let findings = List.length diagnostics
  and errors = Diagnostic.errors diagnostics in
  match List.assoc_opt id Answers.lint with
  | None -> fail "%s: no recorded lint answer" id
  | Some expected when expected = (findings, errors) -> Ok ()
  | Some (f, e) ->
      fail "%s: %d findings (%d errors), expected %d (%d errors)" id findings
        errors f e

let check ~seed input answer =
  let job = input.job in
  match answer with
  | Protected r -> check_hybrid ~seed job r
  | Signed_off { result; provisioned; equivalent } ->
      let* () = check_hybrid ~seed job result in
      let* () =
        if equivalent then Ok ()
        else fail "%s: SAT sign-off is not Equivalent" (job_id job)
      in
      check_equivalent ~seed
        ~what:(job_id job ^ " provisioned view")
        (Hybrid.original result.Flow.hybrid)
        provisioned
  | Attacked { outcome; verified } ->
      check_attack ~seed job (prepared_hybrid input) outcome ~verified
  | Linted diagnostics -> check_lint job diagnostics

(* the hybrids protected during set-up *)
let check_setup ~seed inputs =
  List.filter_map
    (fun input ->
      match input.prepared with
      | None -> None
      | Some r -> (
          match check_hybrid ~seed input.job r with
          | Ok () -> None
          | Error m -> Some m))
    inputs
