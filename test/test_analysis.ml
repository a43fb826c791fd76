(* Tests for Sttc_analysis: static timing, path sampling (Section IV-A),
   activity propagation, power and area estimation. *)

module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Transform = Sttc_netlist.Transform
module Gate_fn = Sttc_logic.Gate_fn
module Sta = Sttc_analysis.Sta
module Paths = Sttc_analysis.Paths
module Activity = Sttc_analysis.Activity
module Power = Sttc_analysis.Power
module Area = Sttc_analysis.Area
module Library = Sttc_tech.Library
module Rng = Sttc_util.Rng

let lib = Library.cmos90

(* chain: a -> NOT n1 -> NOT n2 -> NOT n3 -> y *)
let inverter_chain n =
  let b = Netlist.Builder.create ~design_name:"chain" () in
  let a = Netlist.Builder.add_pi b "a" in
  let last = ref a in
  for i = 1 to n do
    last := Netlist.Builder.add_gate b (Printf.sprintf "n%d" i) Gate_fn.Not [ !last ]
  done;
  Netlist.Builder.add_output b "y" !last;
  Netlist.Builder.finalize b

let pipeline_circuit () =
  (* PI -> g1 -> FF1 -> g2 -> FF2 -> g3 -> PO; depth 2 FFs *)
  let b = Netlist.Builder.create ~design_name:"pipe" () in
  let a = Netlist.Builder.add_pi b "a" in
  let c = Netlist.Builder.add_pi b "c" in
  let g1 = Netlist.Builder.add_gate b "g1" (Gate_fn.And 2) [ a; c ] in
  let ff1 = Netlist.Builder.add_dff b "ff1" g1 in
  let g2 = Netlist.Builder.add_gate b "g2" (Gate_fn.Or 2) [ ff1; c ] in
  let ff2 = Netlist.Builder.add_dff b "ff2" g2 in
  let g3 = Netlist.Builder.add_gate b "g3" (Gate_fn.Xor 2) [ ff2; a ] in
  Netlist.Builder.add_output b "y" g3;
  Netlist.Builder.finalize b

(* ---------- STA ---------- *)

let test_sta_chain_delay () =
  let nl = inverter_chain 5 in
  let sta = Sta.analyze lib nl in
  let not_delay = (Sttc_tech.Cmos_lib.gate Gate_fn.Not).Sttc_tech.Cell.delay_ps in
  Alcotest.(check (float 1e-6)) "5 inverters" (5. *. not_delay)
    (Sta.critical_delay_ps sta)

let test_sta_critical_path () =
  let nl = inverter_chain 3 in
  let sta = Sta.analyze lib nl in
  let path = Sta.critical_path sta in
  Alcotest.(check int) "path length (pi + 3 gates)" 4 (List.length path);
  Alcotest.(check string) "starts at pi" "a"
    (Netlist.name nl (List.hd path));
  Alcotest.(check string) "ends at endpoint" "n3"
    (Netlist.name nl (List.nth path 3));
  Alcotest.(check string) "worst endpoint" "n3"
    (Netlist.name nl (fst (List.hd (Sta.endpoint_arrivals sta))))

let test_sta_pipeline_stages () =
  let nl = pipeline_circuit () in
  let sta = Sta.analyze lib nl in
  (* endpoints: ff1.D (g1), ff2.D (g2), y (g3) *)
  Alcotest.(check int) "three endpoints" 3
    (List.length (Sta.endpoint_arrivals sta));
  (* FF-launched stages include the clk-to-q delay *)
  let dffq = (Sttc_tech.Cmos_lib.dff).Sttc_tech.Cell.delay_ps in
  let g3 = Netlist.find_exn nl "g3" in
  let xor_d = (Sttc_tech.Cmos_lib.gate (Gate_fn.Xor 2)).Sttc_tech.Cell.delay_ps in
  Alcotest.(check (float 1e-6)) "g3 arrival" (dffq +. xor_d)
    (Sta.arrival_ps sta g3)

let test_sta_lut_slows_path () =
  let nl = inverter_chain 4 in
  let sta = Sta.analyze lib nl in
  let g = Netlist.find_exn nl "n2" in
  (* an inverter cannot be replaced by our flow (fan-in 1 is allowed for
     LUTs in general); replace and expect the critical delay to grow *)
  let nl2 = Transform.replace_gate_with_lut nl g in
  let sta2 = Sta.analyze lib nl2 in
  Alcotest.(check bool) "slower with LUT" true
    (Sta.critical_delay_ps sta2 > Sta.critical_delay_ps sta)

let test_sta_endpoint_arrivals () =
  let nl = pipeline_circuit () in
  let sta = Sta.analyze lib nl in
  match Sta.endpoint_arrivals sta with
  | (_, a1) :: (_, a2) :: _ ->
      Alcotest.(check bool) "sorted" true (a1 >= a2);
      Alcotest.(check (float 1e-9)) "worst = critical"
        (Sta.critical_delay_ps sta) a1
  | _ -> Alcotest.fail "expected two endpoints"

(* ---------- Paths ---------- *)

let test_paths_find_io_path () =
  let nl = pipeline_circuit () in
  let g2 = Netlist.find_exn nl "g2" in
  let paths = Paths.sample ~rng:(Rng.make 1) nl in
  if paths = [] then Alcotest.fail "expected a path";
  List.iter
    (fun p ->
      (* every 2-FF path passes through g2, starts at a PI, ends at the
         PO driver *)
      Alcotest.(check bool) "contains g2" true (List.mem g2 p.Paths.nodes);
      let first = List.hd p.Paths.nodes in
      (match Netlist.kind nl first with
      | Netlist.Pi -> ()
      | _ -> Alcotest.fail "must start at a PI");
      let last = List.nth p.Paths.nodes (List.length p.Paths.nodes - 1) in
      Alcotest.(check string) "ends at PO driver" "g3" (Netlist.name nl last))
    paths

let test_paths_segments () =
  let nl = pipeline_circuit () in
  (* the full-depth path (2 FFs) sorts first *)
  let p = List.hd (Paths.sample ~rng:(Rng.make 3) nl) in
  Alcotest.(check int) "two FFs" 2 p.Paths.ff_count;
  let segs = Paths.segments nl p in
  Alcotest.(check int) "three segments" 3 (List.length segs);
  (match segs with
  | [ s1; s2; s3 ] ->
      Alcotest.(check bool) "s1 launches at PI" false s1.Paths.launches_at_ff;
      Alcotest.(check bool) "s1 captures at FF" true s1.Paths.captures_at_ff;
      Alcotest.(check bool) "s2 launches at FF" true s2.Paths.launches_at_ff;
      Alcotest.(check bool) "s3 captures at PO" false s3.Paths.captures_at_ff
  | _ -> Alcotest.fail "expected 3 segments");
  Alcotest.(check int) "replaceable gates" 3
    (List.length
       (List.filter
          (fun id -> Netlist.is_combinational (Netlist.kind nl id))
          p.Paths.nodes))

let test_paths_sample_sorted_and_deduped () =
  let nl =
    Generator.generate ~seed:4
      {
        Generator.design_name = "s";
        n_pi = 8;
        n_po = 6;
        n_ff = 10;
        n_gates = 120;
        levels = 8;
      }
  in
  let rng = Rng.make 7 in
  let paths = Paths.sample ~rng ~fraction:0.3 ~min_ffs:1 nl in
  Alcotest.(check bool) "found some" true (paths <> []);
  (* sorted by descending ff_count *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Paths.ff_count >= b.Paths.ff_count && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted paths);
  (* unique *)
  let keys = List.map (fun p -> p.Paths.nodes) paths in
  Alcotest.(check int) "deduped" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_paths_sample_excludes_critical () =
  let nl =
    Generator.generate ~seed:9
      {
        Generator.design_name = "s";
        n_pi = 8;
        n_po = 6;
        n_ff = 10;
        n_gates = 150;
        levels = 8;
      }
  in
  let sta = Sta.analyze lib nl in
  let crit = Sta.critical_path sta in
  let rng = Rng.make 7 in
  let paths = Paths.sample ~rng ~fraction:0.5 ~min_ffs:1 ~exclude_critical:crit nl in
  let module Int_set = Set.Make (Int) in
  let crit_set = Int_set.of_list crit in
  (* under the preferred rule, no sampled path shares a node with the
     critical path (unless the fallback had to fire, in which case no path
     may contain the whole critical path) *)
  let disjoint =
    List.for_all
      (fun p -> not (List.exists (fun id -> Int_set.mem id crit_set) p.Paths.nodes))
      paths
  in
  let no_superset =
    List.for_all
      (fun p -> not (Int_set.subset crit_set (Int_set.of_list p.Paths.nodes)))
      paths
  in
  Alcotest.(check bool) "critical excluded" true (disjoint || no_superset)

let test_paths_fraction_validation () =
  let nl = pipeline_circuit () in
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Paths.sample: fraction") (fun () ->
      ignore (Paths.sample ~rng:(Rng.make 1) ~fraction:0. nl))

(* ---------- Activity ---------- *)

let test_activity_constants () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let c1 = Netlist.Builder.add_const b "c1" true in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [ a; c1 ] in
  Netlist.Builder.add_output b "y" g;
  let nl = Netlist.Builder.finalize b in
  let act = Activity.analyze nl in
  Alcotest.(check (float 1e-9)) "const prob" 1. (Activity.probability act c1);
  Alcotest.(check (float 1e-9)) "const switching" 0. (Activity.switching act c1);
  (* AND with constant-1 passes a through: p = 0.5 *)
  Alcotest.(check (float 1e-9)) "gate prob" 0.5 (Activity.probability act g)

let test_activity_gate_probabilities () =
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_pi b "x" in
  let y = Netlist.Builder.add_pi b "y" in
  let and_g = Netlist.Builder.add_gate b "and_g" (Gate_fn.And 2) [ x; y ] in
  let xor_g = Netlist.Builder.add_gate b "xor_g" (Gate_fn.Xor 2) [ x; y ] in
  Netlist.Builder.add_output b "o1" and_g;
  Netlist.Builder.add_output b "o2" xor_g;
  let nl = Netlist.Builder.finalize b in
  let act = Activity.analyze nl in
  Alcotest.(check (float 1e-9)) "and prob 1/4" 0.25 (Activity.probability act and_g);
  Alcotest.(check (float 1e-9)) "xor prob 1/2" 0.5 (Activity.probability act xor_g);
  Alcotest.(check (float 1e-9)) "and switching" 0.375 (Activity.switching act and_g)

let test_activity_pi_probability () =
  let nl = inverter_chain 1 in
  let act = Activity.analyze ~pi_probability:0.9 nl in
  let g = Netlist.find_exn nl "n1" in
  Alcotest.(check (float 1e-9)) "not inverts probability" 0.1
    (Activity.probability act g)

let test_activity_sequential_fixpoint () =
  (* toggle flop: ff = DFF(NOT ff) settles at p = 0.5 *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  ignore a;
  let ff = Netlist.Builder.add_dff_deferred b "ff" in
  let inv = Netlist.Builder.add_gate b "inv" Gate_fn.Not [ ff ] in
  Netlist.Builder.set_dff_input b ff inv;
  Netlist.Builder.add_output b "y" inv;
  let nl = Netlist.Builder.finalize b in
  let act = Activity.analyze nl in
  Alcotest.(check (float 0.05)) "toggle flop prob" 0.5
    (Activity.probability act ff)

let test_activity_unconfigured_lut () =
  let nl = inverter_chain 2 in
  let g = Netlist.find_exn nl "n1" in
  let nl2 = Transform.replace_gate_with_lut ~keep_function:false nl g in
  let act = Activity.analyze nl2 in
  Alcotest.(check (float 1e-9)) "missing LUT prob" 0.5 (Activity.probability act g)

let test_activity_bounds_property () =
  (* probabilities always within [0,1] on random circuits *)
  for seed = 0 to 9 do
    let nl =
      Generator.generate ~seed
        {
          Generator.design_name = "p";
          n_pi = 6;
          n_po = 5;
          n_ff = 4;
          n_gates = 60;
          levels = 6;
        }
    in
    let act = Activity.analyze nl in
    Netlist.iter
      (fun id _ ->
        let p = Activity.probability act id in
        Alcotest.(check bool) "p in [0,1]" true (p >= 0. && p <= 1.);
        let s = Activity.switching act id in
        Alcotest.(check bool) "alpha in [0,0.5]" true (s >= 0. && s <= 0.5))
      nl
  done

(* ---------- Power ---------- *)

let test_power_report_consistency () =
  let nl = inverter_chain 10 in
  let r = Power.estimate lib nl in
  Alcotest.(check (float 1e-9)) "total = dyn + leak"
    (r.Power.dynamic_uw +. r.Power.leakage_uw)
    r.Power.total_uw;
  Alcotest.(check (float 1e-9)) "no stt" 0. r.Power.stt_uw;
  Alcotest.(check bool) "positive" true (r.Power.total_uw > 0.)

let test_power_lut_increases () =
  let nl = inverter_chain 10 in
  let g = Netlist.find_exn nl "n5" in
  let nl2 = Transform.replace_gate_with_lut nl g in
  let r1 = Power.estimate lib nl and r2 = Power.estimate lib nl2 in
  Alcotest.(check bool) "hybrid burns more" true
    (r2.Power.total_uw > r1.Power.total_uw);
  Alcotest.(check bool) "stt share positive" true (r2.Power.stt_uw > 0.)

(* ---------- Area ---------- *)

let test_area_report () =
  let nl = pipeline_circuit () in
  let r = Area.estimate lib nl in
  Alcotest.(check (float 1e-9)) "total = parts"
    (r.Area.gates_um2 +. r.Area.luts_um2 +. r.Area.dffs_um2)
    r.Area.total_um2;
  Alcotest.(check bool) "dff area positive" true (r.Area.dffs_um2 > 0.)

let test_area_lut_overhead () =
  let nl = pipeline_circuit () in
  let g = Netlist.find_exn nl "g2" in
  let nl2 = Transform.replace_gate_with_lut nl g in
  let r1 = Area.estimate lib nl and r2 = Area.estimate lib nl2 in
  Alcotest.(check bool) "lut bigger than gate" true
    (r2.Area.total_um2 > r1.Area.total_um2)

let () =
  Alcotest.run "sttc_analysis"
    [
      ( "sta",
        [
          Alcotest.test_case "chain delay" `Quick test_sta_chain_delay;
          Alcotest.test_case "critical path" `Quick test_sta_critical_path;
          Alcotest.test_case "pipeline stages" `Quick test_sta_pipeline_stages;
          Alcotest.test_case "lut slows path" `Quick test_sta_lut_slows_path;
          Alcotest.test_case "endpoint arrivals" `Quick test_sta_endpoint_arrivals;
        ] );
      ( "paths",
        [
          Alcotest.test_case "find io path" `Quick test_paths_find_io_path;
          Alcotest.test_case "segments" `Quick test_paths_segments;
          Alcotest.test_case "sample sorted/deduped" `Quick
            test_paths_sample_sorted_and_deduped;
          Alcotest.test_case "critical excluded" `Quick
            test_paths_sample_excludes_critical;
          Alcotest.test_case "fraction validation" `Quick
            test_paths_fraction_validation;
        ] );
      ( "activity",
        [
          Alcotest.test_case "constants" `Quick test_activity_constants;
          Alcotest.test_case "gate probabilities" `Quick
            test_activity_gate_probabilities;
          Alcotest.test_case "pi probability" `Quick test_activity_pi_probability;
          Alcotest.test_case "sequential fixpoint" `Quick
            test_activity_sequential_fixpoint;
          Alcotest.test_case "unconfigured lut" `Quick test_activity_unconfigured_lut;
          Alcotest.test_case "bounds on random circuits" `Quick
            test_activity_bounds_property;
        ] );
      ( "power",
        [
          Alcotest.test_case "report consistency" `Quick test_power_report_consistency;
          Alcotest.test_case "lut increases power" `Quick test_power_lut_increases;
        ] );
      ( "area",
        [
          Alcotest.test_case "report" `Quick test_area_report;
          Alcotest.test_case "lut overhead" `Quick test_area_lut_overhead;
        ] );
    ]
