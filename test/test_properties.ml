(* Cross-module property-based tests: invariants that must hold on random
   circuits, random selections and random configurations — the contracts
   the whole flow rests on. *)

module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Transform = Sttc_netlist.Transform
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Rng = Sttc_util.Rng
module Lognum = Sttc_util.Lognum
module Flow = Sttc_core.Flow

(* strict single-attempt protection via the unified Flow.run entry point *)
let protect ?seed ?fraction ?hardening alg nl =
  (Flow.run ?seed ?fraction ?hardening ~policy:Flow.Strict alg nl)
    .Flow.accepted

module Hybrid = Sttc_core.Hybrid

let gen_seed = QCheck2.Gen.int_range 0 100_000

let small_spec =
  {
    Generator.design_name = "prop";
    n_pi = 6;
    n_po = 5;
    n_ff = 4;
    n_gates = 45;
    levels = 5;
  }

let gen_netlist seed = Generator.generate ~seed small_spec

let equivalent a b =
  match Sttc_sim.Equiv.check_sat a b with
  | Sttc_sim.Equiv.Equivalent -> true
  | _ -> false

let to_case = QCheck_alcotest.to_alcotest

(* ---------- flow-level invariants ---------- *)

let prop_protect_program_identity =
  QCheck2.Test.make ~name:"protect then program restores the function"
    ~count:12
    QCheck2.Gen.(pair gen_seed (int_range 0 2))
    (fun (seed, alg_idx) ->
      let nl = gen_netlist seed in
      let alg = List.nth Flow.default_algorithms alg_idx in
      let r = protect ~seed alg nl in
      equivalent nl (Hybrid.programmed r.Flow.hybrid))

let prop_foundry_view_has_no_configs =
  QCheck2.Test.make ~name:"foundry view never carries configurations"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let r = protect ~seed (Flow.Independent { count = 4 }) nl in
      List.for_all
        (fun id ->
          match Netlist.kind (Hybrid.foundry_view r.Flow.hybrid) id with
          | Netlist.Lut { config = None; _ } -> true
          | _ -> false)
        (Hybrid.lut_ids r.Flow.hybrid))

let prop_hardening_preserves_function =
  QCheck2.Test.make ~name:"hardened hybrids stay equivalent" ~count:10
    QCheck2.Gen.(pair gen_seed (int_range 1 2))
    (fun (seed, extra) ->
      let nl = gen_netlist seed in
      let hardening =
        { Flow.extra_inputs_per_lut = extra; absorb_drivers = true }
      in
      let r = protect ~seed ~hardening (Flow.Independent { count = 3 }) nl in
      equivalent nl (Hybrid.programmed r.Flow.hybrid))

let prop_security_monotone =
  QCheck2.Test.make ~name:"N_dep and N_bf never shrink when LUTs are added"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let gates = Array.of_list (Netlist.gates nl) in
      QCheck2.assume (Array.length gates >= 8);
      let eval k =
        let h = Hybrid.make nl (Array.to_list (Array.sub gates 0 k)) in
        Sttc_core.Security.evaluate (Hybrid.foundry_view h)
          ~luts:(Hybrid.lut_ids h)
      in
      let a = eval 4 and b = eval 8 in
      Lognum.compare b.Sttc_core.Security.n_dep a.Sttc_core.Security.n_dep >= 0
      && Lognum.compare b.Sttc_core.Security.n_bf a.Sttc_core.Security.n_bf >= 0)

(* ---------- netlist transforms ---------- *)

let prop_optimize_equivalence =
  QCheck2.Test.make ~name:"Opt.optimize preserves the function" ~count:15
    gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      equivalent nl (Sttc_netlist.Opt.optimize nl))

let prop_sweep_equivalence_and_map =
  QCheck2.Test.make ~name:"Transform.sweep preserves function and maps ids"
    ~count:15 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let swept, map = Transform.sweep nl in
      equivalent nl swept
      && Array.for_all (fun m -> m >= -1 && m < Netlist.node_count swept) map)

(* ---------- IO round-trips ---------- *)

let prop_bench_roundtrip_with_luts =
  QCheck2.Test.make ~name:"hybrid .bench round-trips semantically" ~count:12
    gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let gates = Array.of_list (Netlist.gates nl) in
      let picks =
        Array.to_list (Rng.sample (Rng.make seed) 3 gates)
      in
      let h = Hybrid.make nl picks in
      let programmed = Hybrid.programmed h in
      let reparsed =
        Sttc_netlist.Bench_io.parse_string
          (Sttc_netlist.Bench_io.to_string programmed)
      in
      equivalent programmed reparsed)

let prop_provision_roundtrip =
  QCheck2.Test.make ~name:"bitstream serialize/parse/apply restores design"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let r = protect ~seed (Flow.Independent { count = 3 }) nl in
      let text =
        Sttc_core.Provision.to_string (Sttc_core.Provision.of_hybrid r.Flow.hybrid)
      in
      let programmed =
        Sttc_core.Provision.apply
          (Hybrid.foundry_view r.Flow.hybrid)
          (Sttc_core.Provision.parse text)
      in
      equivalent nl programmed)

(* ---------- analysis invariants ---------- *)

let prop_segments_partition_path =
  QCheck2.Test.make ~name:"segments partition a path's gates" ~count:15
    gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let rng = Rng.make seed in
      let paths = Sttc_analysis.Paths.sample ~rng ~fraction:0.4 ~min_ffs:0 nl in
      List.for_all
        (fun p ->
          let from_segments =
            List.concat_map
              (fun s -> s.Sttc_analysis.Paths.gates)
              (Sttc_analysis.Paths.segments nl p)
          in
          from_segments = Sttc_analysis.Paths.gates_on_path nl p)
        paths)

let prop_sta_arrival_monotone =
  QCheck2.Test.make ~name:"STA arrivals never decrease along a path"
    ~count:15 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let sta = Sttc_analysis.Sta.analyze Sttc_tech.Library.cmos90 nl in
      List.for_all
        (fun (_, path) ->
          let rec increasing = function
            | a :: (b :: _ as rest) ->
                Sttc_analysis.Sta.arrival_ps sta a
                <= Sttc_analysis.Sta.arrival_ps sta b +. 1e-9
                && increasing rest
            | _ -> true
          in
          increasing path)
        (Sttc_analysis.Sta.worst_paths sta ~k:4))

let prop_power_hybrid_exceeds_base =
  QCheck2.Test.make ~name:"replacing gates with STT LUTs never cuts power"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let gates = Array.of_list (Netlist.gates nl) in
      let picks = Array.to_list (Rng.sample (Rng.make seed) 3 gates) in
      let h = Hybrid.make nl picks in
      let lib = Sttc_tech.Library.cmos90 in
      let base = Sttc_analysis.Power.estimate lib nl in
      let hyb = Sttc_analysis.Power.estimate lib (Hybrid.programmed h) in
      hyb.Sttc_analysis.Power.total_uw
      >= base.Sttc_analysis.Power.total_uw -. 1e-9)

(* ---------- simulator vs formal semantics ---------- *)

let prop_sim_matches_bdd =
  QCheck2.Test.make ~name:"bit-parallel simulator agrees with BDD semantics"
    ~count:10 gen_seed
    (fun seed ->
      let nl = Generator.random_combinational ~seed ~n_pi:6 ~n_gates:25 ~n_po:4 in
      let m = Sttc_logic.Bdd.manager () in
      let pis = Array.of_list (Netlist.pis nl) in
      let var_of = Hashtbl.create 8 in
      Array.iteri (fun i pi -> Hashtbl.add var_of pi i) pis;
      let bdds = Array.make (Netlist.node_count nl) (Sttc_logic.Bdd.zero m) in
      Array.iter
        (fun id ->
          let node = Netlist.node nl id in
          match node.Netlist.kind with
          | Netlist.Pi -> bdds.(id) <- Sttc_logic.Bdd.var m (Hashtbl.find var_of id)
          | Netlist.Const v ->
              bdds.(id) <-
                (if v then Sttc_logic.Bdd.one m else Sttc_logic.Bdd.zero m)
          | Netlist.Gate fn ->
              let ins =
                Array.to_list (Array.map (fun s -> bdds.(s)) node.Netlist.fanins)
              in
              bdds.(id) <-
                (match fn with
                | Gate_fn.Buf -> List.hd ins
                | Gate_fn.Not -> Sttc_logic.Bdd.lnot m (List.hd ins)
                | Gate_fn.And _ -> Sttc_logic.Bdd.land_list m ins
                | Gate_fn.Nand _ ->
                    Sttc_logic.Bdd.lnot m (Sttc_logic.Bdd.land_list m ins)
                | Gate_fn.Or _ -> Sttc_logic.Bdd.lor_list m ins
                | Gate_fn.Nor _ ->
                    Sttc_logic.Bdd.lnot m (Sttc_logic.Bdd.lor_list m ins)
                | Gate_fn.Xor _ -> Sttc_logic.Bdd.lxor_list m ins
                | Gate_fn.Xnor _ ->
                    Sttc_logic.Bdd.lnot m (Sttc_logic.Bdd.lxor_list m ins))
          | Netlist.Lut _ | Netlist.Dff -> ())
        (Netlist.topo_order nl);
      let sim = Sttc_sim.Simulator.create nl in
      let rng = Rng.make (seed + 1) in
      let lanes = Array.map (fun _ -> Rng.int64 rng) pis in
      let outs = Sttc_sim.Simulator.eval_comb sim lanes in
      let lane = 13 in
      let bit v = Int64.logand (Int64.shift_right_logical v lane) 1L = 1L in
      Array.for_all Fun.id
        (Array.mapi
           (fun i (_, driver) ->
             let assign v = bit lanes.(v) in
             Sttc_logic.Bdd.eval bdds.(driver) assign = bit outs.(i))
           (Netlist.outputs nl)))

(* ---------- incremental timing & activity differentials ----------

   The incremental engine's contract is exactness, not approximation:
   every quantity it produces must be bit-identical to a from-scratch
   analysis of the modified netlist.  These properties drive random
   netlists through random replacement sets and compare with [=]. *)

module Sta = Sttc_analysis.Sta
module Activity = Sttc_analysis.Activity
module Algorithms = Sttc_core.Algorithms

let cmos = Sttc_tech.Library.cmos90

let random_gate_subset seed nl k =
  let gates = Array.of_list (Netlist.gates nl) in
  let k = min k (Array.length gates) in
  if k = 0 then [] else Array.to_list (Rng.sample (Rng.make seed) k gates)

let arrivals_equal nl a b =
  let n = Netlist.node_count nl in
  let rec go i =
    i >= n || (Sta.arrival_ps a i = Sta.arrival_ps b i && go (i + 1))
  in
  go 0

let prop_retime_matches_analyze =
  QCheck2.Test.make ~name:"retime is bit-identical to from-scratch analyze"
    ~count:15
    QCheck2.Gen.(pair gen_seed (int_range 1 8))
    (fun (seed, k) ->
      let nl = gen_netlist seed in
      let base = Sta.analyze cmos nl in
      let picks = random_gate_subset (seed + 17) nl k in
      let nl' = Transform.replace_many ~keep_function:false nl picks in
      let inc = Sta.retime cmos base nl' ~changed:[] in
      let full = Sta.analyze cmos nl' in
      arrivals_equal nl' inc full
      && Sta.critical_delay_ps inc = Sta.critical_delay_ps full
      && Sta.critical_path inc = Sta.critical_path full)

let prop_trial_session_matches_scratch =
  (* a persistent trial session advanced through a drifting sequence of
     candidate sets must agree with a fresh replace+analyze at every
     step — the exact access pattern of the selection loops *)
  QCheck2.Test.make ~name:"trial sessions track from-scratch STA exactly"
    ~count:10 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let base = Sta.analyze cmos nl in
      let tr = Sta.trial cmos base in
      let ov = Transform.Overlay.create nl in
      let current = ref [] in
      List.for_all
        (fun (i, k) ->
          let target = random_gate_subset (seed + (31 * i) + 7) nl k in
          let removed =
            List.filter (fun g -> not (List.mem g target)) !current
          in
          let added =
            List.filter (fun g -> not (List.mem g !current)) target
          in
          List.iter (Transform.Overlay.unstage ov) removed;
          Transform.Overlay.stage_all ov added;
          (match List.rev_append removed added with
          | [] -> ()
          | seeds ->
              ignore
                (Sta.trial_advance tr
                   ~kind_of:(Transform.Overlay.kind ov)
                   seeds));
          current := target;
          let full =
            Sta.analyze cmos
              (Transform.replace_many ~keep_function:false nl target)
          in
          let d, p = Sta.trial_current_critical tr in
          d = Sta.critical_delay_ps full
          && p = Sta.critical_path full
          && Sta.trial_current_delay_ps tr = Sta.critical_delay_ps full)
        [ (0, 3); (1, 5); (2, 1); (3, 4); (4, 0); (5, 2) ])

let prop_activity_refine_matches_full =
  QCheck2.Test.make ~name:"Activity.refine is bit-identical to the full fixpoint"
    ~count:12
    QCheck2.Gen.(triple gen_seed (int_range 1 6) bool)
    (fun (seed, k, keep_function) ->
      let nl = gen_netlist seed in
      let base = Activity.analyze nl in
      let picks = random_gate_subset (seed + 5) nl k in
      let nl' = Transform.replace_many ~keep_function nl picks in
      let inc = Activity.refine base nl' ~changed:[] in
      let full = Activity.analyze nl' in
      let n = Netlist.node_count nl' in
      let rec go i =
        i >= n
        || (Activity.probability inc i = Activity.probability full i
           && Activity.switching inc i = Activity.switching full i
           && go (i + 1))
      in
      go 0)

let prop_parametric_incremental_matches_full =
  (* the whole parametric flow — including its repair loop, which
     retracts gates from an accepted set — must emit byte-identical
     hybrids whether candidate timing runs on the incremental session
     or on the legacy full re-analysis (STTC_FULL_STA=1) *)
  QCheck2.Test.make
    ~name:"parametric flow is byte-identical with and without incremental STA"
    ~count:6 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let alg =
        Flow.Parametric
          { Algorithms.default_parametric with Algorithms.clock_factor = 1.05 }
      in
      let fingerprint () =
        match protect ~seed alg nl with
        | r ->
            Ok
              ( Sttc_netlist.Bench_io.to_string
                  (Hybrid.foundry_view r.Flow.hybrid),
                Hybrid.bitstream r.Flow.hybrid )
        | exception e -> Error (Printexc.to_string e)
      in
      Unix.putenv "STTC_FULL_STA" "1";
      let full = fingerprint () in
      Unix.putenv "STTC_FULL_STA" "";
      let inc = fingerprint () in
      full = inc)

let prop_lognum_prod_is_log_sum =
  QCheck2.Test.make ~name:"Lognum.prod equals the sum of logs" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.5 1e6))
    (fun xs ->
      let p = Lognum.prod (List.map Lognum.of_float xs) in
      let expected = List.fold_left (fun acc x -> acc +. log10 x) 0. xs in
      Float.abs (Lognum.log10 p -. expected) < 1e-6)

let () =
  Alcotest.run "properties"
    [
      ( "flow",
        List.map to_case
          [
            prop_protect_program_identity;
            prop_foundry_view_has_no_configs;
            prop_hardening_preserves_function;
            prop_security_monotone;
          ] );
      ( "transforms",
        List.map to_case
          [
            prop_optimize_equivalence;
            prop_sweep_equivalence_and_map;
          ] );
      ( "io",
        List.map to_case
          [ prop_bench_roundtrip_with_luts; prop_provision_roundtrip ] );
      ( "analysis",
        List.map to_case
          [
            prop_segments_partition_path;
            prop_sta_arrival_monotone;
            prop_power_hybrid_exceeds_base;
          ] );
      ( "incremental",
        List.map to_case
          [
            prop_retime_matches_analyze;
            prop_trial_session_matches_scratch;
            prop_activity_refine_matches_full;
            prop_parametric_incremental_matches_full;
          ] );
      ( "semantics",
        List.map to_case [ prop_sim_matches_bdd; prop_lognum_prod_is_log_sum ] );
    ]
