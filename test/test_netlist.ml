(* Tests for Sttc_netlist: builder/validation, queries, bench IO, Verilog
   output, transforms, the synthetic generator and the ISCAS profiles. *)

module Netlist = Sttc_netlist.Netlist
module Query = Sttc_netlist.Query
module Bench_io = Sttc_netlist.Bench_io
module Verilog_out = Sttc_netlist.Verilog_out
module Transform = Sttc_netlist.Transform
module Generator = Sttc_netlist.Generator
module Profiles = Sttc_netlist.Iscas_profiles
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth

(* A small reference circuit used across the tests:
   PI a,b; g1 = NAND(a,b); ff = DFF(g2); g2 = XOR(g1, ff); PO y = g2. *)
let small_circuit () =
  let b = Netlist.Builder.create ~design_name:"small" () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let g1 = Netlist.Builder.add_gate b "g1" (Gate_fn.Nand 2) [ a; bb ] in
  let ff = Netlist.Builder.add_dff_deferred b "ff" in
  let g2 = Netlist.Builder.add_gate b "g2" (Gate_fn.Xor 2) [ g1; ff ] in
  Netlist.Builder.set_dff_input b ff g2;
  Netlist.Builder.add_output b "y" g2;
  Netlist.Builder.finalize b

(* ---------- builder / validation ---------- *)

let test_builder_basic () =
  let nl = small_circuit () in
  Alcotest.(check int) "nodes" 5 (Netlist.node_count nl);
  Alcotest.(check int) "gate count" 2 (Netlist.gate_count nl);
  Alcotest.(check int) "pis" 2 (List.length (Netlist.pis nl));
  Alcotest.(check int) "dffs" 1 (List.length (Netlist.dffs nl));
  Alcotest.(check int) "pos" 1 (List.length (Netlist.pos nl));
  Alcotest.(check string) "find" "g1"
    (Netlist.name nl (Netlist.find_exn nl "g1"))

let test_builder_duplicate_name () =
  let b = Netlist.Builder.create () in
  ignore (Netlist.Builder.add_pi b "a");
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder: duplicate node name a") (fun () ->
      ignore (Netlist.Builder.add_pi b "a"))

let test_builder_arity_mismatch () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  Alcotest.check_raises "arity"
    (Invalid_argument "Builder.add_gate: arity mismatch at g") (fun () ->
      ignore (Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [ a ]))

let test_builder_unwired_dff () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  ignore (Netlist.Builder.add_dff_deferred b "ff");
  Netlist.Builder.add_output b "y" a;
  Alcotest.check_raises "unwired"
    (Invalid_argument "Builder.finalize: unwired DFF ff") (fun () ->
      ignore (Netlist.Builder.finalize b))

let test_builder_no_outputs () =
  let b = Netlist.Builder.create () in
  ignore (Netlist.Builder.add_pi b "a");
  Alcotest.check_raises "no outputs"
    (Invalid_argument "Builder.finalize: no outputs") (fun () ->
      ignore (Netlist.Builder.finalize b))

let test_builder_combinational_cycle () =
  (* cycles through DFFs are fine (small_circuit); a pure combinational
     cycle must be rejected: build via with_kinds rewiring *)
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" and g2 = Netlist.find_exn nl "g2" in
  Alcotest.(check bool) "cycle rejected" true
    (try
       (* rewire g1 to read g2: combinational loop g1 -> g2 -> g1 *)
       ignore
         (Netlist.with_kinds nl (fun id kind fanins ->
              if id = g1 then (kind, [| fanins.(0); g2 |])
              else (kind, fanins)));
       false
     with Invalid_argument _ -> true)

let test_fanouts () =
  let nl = small_circuit () in
  let g2 = Netlist.find_exn nl "g2" in
  let ff = Netlist.find_exn nl "ff" in
  Alcotest.(check (list int)) "g2 feeds ff" [ ff ] (Netlist.fanouts nl g2);
  Alcotest.(check int) "fanout degree" 1 (Netlist.fanout_degree nl g2)

let test_topo_order () =
  let nl = small_circuit () in
  let order = Netlist.topo_order nl in
  Alcotest.(check int) "covers all nodes" (Netlist.node_count nl)
    (Array.length order);
  let position = Hashtbl.create 8 in
  Array.iteri (fun i id -> Hashtbl.add position id i) order;
  (* every combinational node comes after its fanins *)
  Netlist.iter
    (fun id node ->
      if Netlist.is_combinational node.Netlist.kind then
        Array.iter
          (fun src ->
            Alcotest.(check bool) "fanin before node" true
              (Hashtbl.find position src < Hashtbl.find position id))
          node.Netlist.fanins)
    nl

(* ---------- queries ---------- *)

let test_query_cones () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" and g2 = Netlist.find_exn nl "g2" in
  let a = Netlist.find_exn nl "a" in
  let cone = Query.fanin_cone nl g2 in
  Alcotest.(check bool) "g1 in cone" true (List.mem g1 cone);
  Alcotest.(check bool) "a in cone" true (List.mem a cone);
  let inputs = Query.cone_inputs nl [ g2 ] in
  Alcotest.(check int) "3 cone inputs (a, b, ff)" 3 (List.length inputs)

let test_query_levels_depth () =
  let nl = small_circuit () in
  let lv = Query.levels nl in
  Alcotest.(check int) "pi level" 0 lv.(Netlist.find_exn nl "a");
  Alcotest.(check int) "g1 level" 1 lv.(Netlist.find_exn nl "g1");
  Alcotest.(check int) "g2 level" 2 lv.(Netlist.find_exn nl "g2");
  Alcotest.(check int) "depth" 2 (Query.depth nl)

let test_query_reaches () =
  let nl = small_circuit () in
  let a = Netlist.find_exn nl "a" in
  let g2 = Netlist.find_exn nl "g2" in
  let ff = Netlist.find_exn nl "ff" in
  Alcotest.(check bool) "a reaches g2" true (Query.reaches nl a g2);
  Alcotest.(check bool) "a reaches g2 comb" true
    (Query.reaches_combinationally nl a g2);
  (* reaching a flip-flop means reaching its D input, which is a purely
     combinational path; what does NOT exist is a combinational path from
     the flip-flop's own output back to g1's fanin cone sources *)
  Alcotest.(check bool) "g2 reaches ff seq" true (Query.reaches nl g2 ff);
  Alcotest.(check bool) "g2 reaches ff.D combinationally" true
    (Query.reaches_combinationally nl g2 ff);
  let a = Netlist.find_exn nl "a" in
  Alcotest.(check bool) "ff does not reach a" false (Query.reaches nl ff a)

let test_query_seq_depth () =
  let nl = small_circuit () in
  let d = Query.sequential_depth_to_po nl in
  Alcotest.(check int) "g2 drives PO directly" 0 (d.(Netlist.find_exn nl "g2"));
  (* ff feeds g2 which is the PO: no flop crossing needed *)
  Alcotest.(check int) "ff to po" 0 (d.(Netlist.find_exn nl "ff"))

let test_query_connected_pairs () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" and g2 = Netlist.find_exn nl "g2" in
  let pairs = Query.connected_lut_pairs nl [ g1; g2 ] in
  Alcotest.(check (list (pair int int))) "g1 -> g2" [ (g1, g2) ] pairs

(* ---------- bench IO ---------- *)

let bench_text =
  {|# sample
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
s = DFF(n2)
n2 = XOR(n1, s)
y = BUFF(n2)
|}

let test_bench_parse () =
  let nl = Bench_io.parse_string bench_text in
  Alcotest.(check int) "pis" 2 (List.length (Netlist.pis nl));
  Alcotest.(check int) "dffs" 1 (List.length (Netlist.dffs nl));
  Alcotest.(check int) "gates" 3 (List.length (Netlist.gates nl));
  Alcotest.(check string) "output name" "y" (fst (Netlist.outputs nl).(0))

let test_bench_roundtrip_semantics () =
  let nl = small_circuit () in
  let nl2 = Bench_io.parse_string (Bench_io.to_string nl) in
  (* aliasing may add buffers; functional equivalence must hold *)
  match Sttc_sim.Equiv.check_sat nl nl2 with
  | Sttc_sim.Equiv.Equivalent -> ()
  | Sttc_sim.Equiv.Different f ->
      Alcotest.fail ("roundtrip differs at " ^ f.Sttc_sim.Equiv.signal)
  | Sttc_sim.Equiv.Inconclusive m -> Alcotest.fail m

let test_bench_lut_roundtrip () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let hybrid = Transform.replace_many ~keep_function:true nl [ g1 ] in
  let text = Bench_io.to_string hybrid in
  let nl2 = Bench_io.parse_string text in
  (match Netlist.kind nl2 (Netlist.find_exn nl2 "g1") with
  | Netlist.Lut { config = Some c; _ } ->
      Alcotest.(check string) "config preserved" "1110" (Truth.to_string c)
  | _ -> Alcotest.fail "expected configured LUT");
  (* stripped (missing) LUTs round-trip too *)
  let foundry = Transform.strip_configs hybrid in
  let nl3 = Bench_io.parse_string (Bench_io.to_string foundry) in
  match Netlist.kind nl3 (Netlist.find_exn nl3 "g1") with
  | Netlist.Lut { config = None; _ } -> ()
  | _ -> Alcotest.fail "expected missing LUT"

let test_bench_errors () =
  let expect_error text =
    try
      ignore (Bench_io.parse_string text);
      false
    with Bench_io.Parse_error _ -> true
  in
  Alcotest.(check bool) "undefined signal" true
    (expect_error "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n");
  Alcotest.(check bool) "unknown gate" true
    (expect_error "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MAJ3(a, b, a)\n");
  Alcotest.(check bool) "combinational cycle" true
    (expect_error "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(a, y)\n");
  Alcotest.(check bool) "redefined" true
    (expect_error "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n")

let test_bench_strict_errors () =
  (* validation failures surface as Parse_error with the offending line *)
  let expect_line text line =
    try
      ignore (Bench_io.parse_string text);
      Alcotest.fail "expected Parse_error"
    with Bench_io.Parse_error (l, _) ->
      Alcotest.(check int) "error line" line l
  in
  (* duplicate OUTPUT declaration, reported at the second declaration *)
  expect_line "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n" 3;
  (* constants take no arguments *)
  expect_line "INPUT(a)\nOUTPUT(y)\nc = VCC(a)\ny = AND(a, c)\n" 3;
  expect_line "INPUT(a)\nOUTPUT(y)\nc = GND(a)\ny = AND(a, c)\n" 3;
  (* a known gate at an impossible arity names the gate, not "unknown" *)
  (try
     ignore (Bench_io.parse_string "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n");
     Alcotest.fail "expected Parse_error"
   with Bench_io.Parse_error (l, m) ->
     Alcotest.(check int) "NOT arity line" 3 l;
     Alcotest.(check string) "NOT arity message" "gate NOT cannot take 2 input(s)" m);
  (* builder rejections (LUT arity beyond the technology maximum) are
     wrapped into Parse_error instead of escaping as Invalid_argument *)
  let wide_lut =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nINPUT(g)\n\
     OUTPUT(y)\ny = LUT(a, b, c, d, e, f, g)\n"
  in
  expect_line wide_lut 9

let test_bench_constants () =
  let nl =
    Bench_io.parse_string "INPUT(a)\nOUTPUT(y)\nc1 = VCC()\ny = AND(a, c1)\n"
  in
  match Netlist.kind nl (Netlist.find_exn nl "c1") with
  | Netlist.Const true -> ()
  | _ -> Alcotest.fail "expected constant true"

(* ---------- Verilog ---------- *)

let test_verilog_output () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let hybrid = Transform.replace_many ~keep_function:true nl [ g1 ] in
  let v = Verilog_out.to_string hybrid in
  let contains needle =
    let n = String.length needle and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module small");
  Alcotest.(check bool) "dff cell" true (contains "STT_DFF");
  Alcotest.(check bool) "lut cell" true (contains "STT_LUT");
  Alcotest.(check bool) "config param" true (contains "CONFIG")

(* ---------- transforms ---------- *)

let test_transform_replace_preserves_ids () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let nl2 = Transform.replace_gate_with_lut nl g1 in
  Alcotest.(check int) "same node count" (Netlist.node_count nl)
    (Netlist.node_count nl2);
  Alcotest.(check int) "same id" g1 (Netlist.find_exn nl2 "g1");
  match Netlist.kind nl2 g1 with
  | Netlist.Lut { arity = 2; config = Some c } ->
      Alcotest.(check string) "nand config" "1110" (Truth.to_string c)
  | _ -> Alcotest.fail "expected configured 2-LUT"

let test_transform_missing_gate () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let nl2 = Transform.replace_gate_with_lut ~keep_function:false nl g1 in
  match Netlist.kind nl2 g1 with
  | Netlist.Lut { config = None; _ } -> ()
  | _ -> Alcotest.fail "expected missing gate"

let test_transform_extra_inputs () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let ff = Netlist.find_exn nl "ff" in
  let nl2 = Transform.replace_gate_with_lut ~extra_inputs:[ ff ] nl g1 in
  (match Netlist.kind nl2 g1 with
  | Netlist.Lut { arity = 3; config = Some c } ->
      (* extra input is ignored logically *)
      Alcotest.(check bool) "degenerate in the extra input" true
        (not (Truth.depends_on c 2))
  | _ -> Alcotest.fail "expected 3-LUT");
  (* connecting a downstream signal must be refused (cycle) *)
  let g2 = Netlist.find_exn nl "g2" in
  Alcotest.check_raises "cycle refused"
    (Invalid_argument
       "Transform.replace_gate_with_lut: extra input would create a cycle")
    (fun () -> ignore (Transform.replace_gate_with_lut ~extra_inputs:[ g2 ] nl g1))

let test_transform_program_strip () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let hybrid = Transform.replace_many ~keep_function:true nl [ g1 ] in
  let foundry = Transform.strip_configs hybrid in
  (match Netlist.kind foundry g1 with
  | Netlist.Lut { config = None; _ } -> ()
  | _ -> Alcotest.fail "strip failed");
  let programmed =
    Transform.program_luts foundry [ (g1, Truth.of_string "1110") ]
  in
  (match Netlist.kind programmed g1 with
  | Netlist.Lut { config = Some _; _ } -> ()
  | _ -> Alcotest.fail "program failed");
  (* arity mismatch rejected *)
  Alcotest.check_raises "bad config"
    (Invalid_argument "Transform.program_luts: config arity mismatch")
    (fun () ->
      ignore (Transform.program_luts foundry [ (g1, Truth.of_string "01") ]))

let test_transform_absorb_driver () =
  (* y = AND(NAND(a,b), c): absorbing the NAND into the AND yields one
     3-input LUT computing (a NAND b) AND c *)
  let b = Netlist.Builder.create ~design_name:"absorb" () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let c = Netlist.Builder.add_pi b "c" in
  let n1 = Netlist.Builder.add_gate b "n1" (Gate_fn.Nand 2) [ a; bb ] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [ n1; c ] in
  Netlist.Builder.add_output b "y" g;
  let nl = Netlist.Builder.finalize b in
  let nl2 = Transform.absorb_driver nl g ~driver:n1 in
  (match Netlist.kind nl2 g with
  | Netlist.Lut { arity = 3; config = Some cfg } ->
      (* rows over [a; b; c] *)
      let expect inputs = (not (inputs.(0) && inputs.(1))) && inputs.(2) in
      for r = 0 to 7 do
        let inputs = Array.init 3 (fun k -> (r lsr k) land 1 = 1) in
        Alcotest.(check bool)
          (Printf.sprintf "row %d" r)
          (expect inputs) (Truth.eval cfg inputs)
      done
  | _ -> Alcotest.fail "expected configured 3-LUT");
  (* function preserved end to end *)
  (match Sttc_sim.Equiv.check_sat nl nl2 with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "absorption changed the function");
  (* absorbable_driver finds n1 *)
  Alcotest.(check (option int)) "absorbable" (Some n1)
    (Transform.absorbable_driver nl g)

let test_transform_absorb_rejections () =
  (* driver with a second fanout must be refused *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let n1 = Netlist.Builder.add_gate b "n1" (Gate_fn.Nand 2) [ a; bb ] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [ n1; bb ] in
  let h = Netlist.Builder.add_gate b "h" (Gate_fn.Or 2) [ n1; a ] in
  Netlist.Builder.add_output b "y" g;
  Netlist.Builder.add_output b "z" h;
  let nl = Netlist.Builder.finalize b in
  Alcotest.check_raises "multi-fanout driver"
    (Invalid_argument "Transform.absorb_driver: driver has other fanouts")
    (fun () -> ignore (Transform.absorb_driver nl g ~driver:n1));
  Alcotest.(check (option int)) "no absorbable driver" None
    (Transform.absorbable_driver nl g)

let test_transform_sweep () =
  let b = Netlist.Builder.create ~design_name:"dead" () in
  let a = Netlist.Builder.add_pi b "a" in
  let live = Netlist.Builder.add_gate b "live" Gate_fn.Not [ a ] in
  let dead = Netlist.Builder.add_gate b "dead" Gate_fn.Buf [ a ] in
  let _dead2 = Netlist.Builder.add_gate b "dead2" Gate_fn.Not [ dead ] in
  Netlist.Builder.add_output b "y" live;
  let nl = Netlist.Builder.finalize b in
  let swept, map = Transform.sweep nl in
  Alcotest.(check int) "dead nodes removed" 2 (Netlist.node_count swept);
  Alcotest.(check int) "dead unmapped" (-1) map.(dead);
  Alcotest.(check bool) "live mapped" true (map.(live) >= 0);
  match Sttc_sim.Equiv.check_sat nl swept with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "sweep changed the function"

let test_transform_replace_not_a_gate () =
  let nl = small_circuit () in
  let a = Netlist.find_exn nl "a" in
  Alcotest.check_raises "pi refused"
    (Invalid_argument "Transform.replace_gate_with_lut: not a gate") (fun () ->
      ignore (Transform.replace_gate_with_lut nl a))

let test_iscas_data_genuine () =
  (* genuine s27 parses to the published statistics and simulates *)
  let s27 = Sttc_netlist.Iscas_data.s27 () in
  Alcotest.(check int) "s27 pis" 4 (List.length (Netlist.pis s27));
  Alcotest.(check int) "s27 dffs" 3 (List.length (Netlist.dffs s27));
  Alcotest.(check int) "s27 gates" 10 (List.length (Netlist.gates s27));
  Alcotest.(check int) "s27 pos" 1 (Array.length (Netlist.outputs s27));
  let c17 = Sttc_netlist.Iscas_data.c17 () in
  Alcotest.(check int) "c17 gates" 6 (List.length (Netlist.gates c17));
  Alcotest.(check int) "c17 dffs" 0 (List.length (Netlist.dffs c17));
  (* the bench text round-trips semantically *)
  List.iter
    (fun (_, build) ->
      let nl = build () in
      let nl2 = Bench_io.parse_string (Bench_io.to_string nl) in
      match Sttc_sim.Equiv.check_sat nl nl2 with
      | Sttc_sim.Equiv.Equivalent -> ()
      | _ -> Alcotest.fail "genuine netlist roundtrip failed")
    Sttc_netlist.Iscas_data.all

let test_c17_truth () =
  (* c17 outputs have known values: N22 = NAND(N10,N16), spot-check one
     full input row against hand evaluation *)
  let c17 = Sttc_netlist.Iscas_data.c17 () in
  let sim = Sttc_sim.Simulator.create c17 in
  (* all inputs 1: N10 = NAND(1,1)=0, N11=0, N16=NAND(1,0)=1, N19=1,
     N22=NAND(0,1)=1, N23=NAND(1,1)=0 *)
  let outs = Sttc_sim.Simulator.eval_comb sim [| -1L; -1L; -1L; -1L; -1L |] in
  Alcotest.(check int64) "N22" 1L (Int64.logand outs.(0) 1L);
  Alcotest.(check int64) "N23" 0L (Int64.logand outs.(1) 1L)

(* ---------- optimization ---------- *)

let test_opt_const_fold () =
  let b = Netlist.Builder.create ~design_name:"cf" () in
  let a = Netlist.Builder.add_pi b "a" in
  let one = Netlist.Builder.add_const b "one" true in
  let zero = Netlist.Builder.add_const b "zero" false in
  let g_and = Netlist.Builder.add_gate b "g_and" (Gate_fn.And 2) [ a; one ] in
  let g_nand = Netlist.Builder.add_gate b "g_nand" (Gate_fn.Nand 2) [ a; zero ] in
  let g_or = Netlist.Builder.add_gate b "g_or" (Gate_fn.Or 2) [ a; one ] in
  let g_xor = Netlist.Builder.add_gate b "g_xor" (Gate_fn.Xor 2) [ a; one ] in
  Netlist.Builder.add_output b "y1" g_and;
  Netlist.Builder.add_output b "y2" g_nand;
  Netlist.Builder.add_output b "y3" g_or;
  Netlist.Builder.add_output b "y4" g_xor;
  let nl = Netlist.Builder.finalize b in
  let folded = Sttc_netlist.Opt.const_fold nl in
  (* AND(a,1) -> BUF(a); NAND(a,0) -> const 1; OR(a,1) -> const 1;
     XOR(a,1) -> NOT(a) *)
  (match Netlist.kind folded g_and with
  | Netlist.Gate Gate_fn.Buf -> ()
  | _ -> Alcotest.fail "AND(a,1) should fold to BUF");
  (match Netlist.kind folded g_nand with
  | Netlist.Const true -> ()
  | _ -> Alcotest.fail "NAND(a,0) should fold to 1");
  (match Netlist.kind folded g_or with
  | Netlist.Const true -> ()
  | _ -> Alcotest.fail "OR(a,1) should fold to 1");
  (match Netlist.kind folded g_xor with
  | Netlist.Gate Gate_fn.Not -> ()
  | _ -> Alcotest.fail "XOR(a,1) should fold to NOT");
  match Sttc_sim.Equiv.check_sat nl folded with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "const_fold changed the function"

let test_opt_collapse_buffers () =
  let b = Netlist.Builder.create ~design_name:"cb" () in
  let a = Netlist.Builder.add_pi b "a" in
  let b1 = Netlist.Builder.add_gate b "b1" Gate_fn.Buf [ a ] in
  let n1 = Netlist.Builder.add_gate b "n1" Gate_fn.Not [ b1 ] in
  let n2 = Netlist.Builder.add_gate b "n2" Gate_fn.Not [ n1 ] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [ n2; a ] in
  Netlist.Builder.add_output b "y" g;
  let nl = Netlist.Builder.finalize b in
  let collapsed = Sttc_netlist.Opt.collapse_buffers nl in
  (* g's first fanin re-routed through the double inverter to a *)
  Alcotest.(check int) "rerouted to a" a (Netlist.fanins collapsed g).(0);
  match Sttc_sim.Equiv.check_sat nl collapsed with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "collapse changed the function"

let test_opt_optimize_random_equivalence () =
  for seed = 0 to 4 do
    let nl =
      Generator.generate ~seed
        {
          Generator.design_name = "opt";
          n_pi = 6;
          n_po = 5;
          n_ff = 4;
          n_gates = 60;
          levels = 6;
        }
    in
    let opt = Sttc_netlist.Opt.optimize nl in
    Alcotest.(check bool) "not larger" true
      (Netlist.gate_count opt <= Netlist.gate_count nl);
    match Sttc_sim.Equiv.check_sat nl opt with
    | Sttc_sim.Equiv.Equivalent -> ()
    | Sttc_sim.Equiv.Different f ->
        Alcotest.fail
          (Printf.sprintf "seed %d: optimize differs at %s" seed
             f.Sttc_sim.Equiv.signal)
    | Sttc_sim.Equiv.Inconclusive m -> Alcotest.fail m
  done

(* ---------- profile stats ---------- *)

let test_profile_stats () =
  let nl = small_circuit () in
  let st = Sttc_netlist.Profile_stats.compute nl in
  Alcotest.(check int) "nodes" 5 st.Sttc_netlist.Profile_stats.nodes;
  Alcotest.(check int) "gates" 2 st.Sttc_netlist.Profile_stats.gates;
  Alcotest.(check int) "depth" 2 st.Sttc_netlist.Profile_stats.depth;
  Alcotest.(check (float 1e-9)) "avg fanin" 2.
    st.Sttc_netlist.Profile_stats.avg_fanin;
  Alcotest.(check bool) "mix has NAND" true
    (List.mem_assoc "NAND" st.Sttc_netlist.Profile_stats.gate_mix);
  Alcotest.(check bool) "renders" true
    (String.length (Sttc_netlist.Profile_stats.render st) > 0)

(* ---------- generator ---------- *)

let test_generator_spec_counts () =
  let spec =
    {
      Generator.design_name = "t";
      n_pi = 9;
      n_po = 7;
      n_ff = 5;
      n_gates = 120;
      levels = 9;
    }
  in
  let nl = Generator.generate ~seed:1 spec in
  Alcotest.(check int) "pis" 9 (List.length (Netlist.pis nl));
  Alcotest.(check int) "outputs" 7 (Array.length (Netlist.outputs nl));
  Alcotest.(check int) "ffs" 5 (List.length (Netlist.dffs nl));
  Alcotest.(check int) "gates" 120 (List.length (Netlist.gates nl));
  Alcotest.(check bool) "depth within levels+1" true
    (Query.depth nl <= 10)

let test_generator_determinism () =
  let spec = Generator.default_spec in
  let a = Bench_io.to_string (Generator.generate ~seed:5 spec) in
  let b = Bench_io.to_string (Generator.generate ~seed:5 spec) in
  Alcotest.(check string) "same seed same circuit" a b;
  let c = Bench_io.to_string (Generator.generate ~seed:6 spec) in
  Alcotest.(check bool) "different seed different circuit" true (a <> c)

let test_generator_validation () =
  Alcotest.check_raises "bad spec"
    (Invalid_argument "Generator: n_pi >= 1 required") (fun () ->
      ignore
        (Generator.generate ~seed:1
           { Generator.default_spec with Generator.n_pi = 0 }))

let test_generator_combinational () =
  let nl = Generator.random_combinational ~seed:2 ~n_pi:6 ~n_gates:40 ~n_po:5 in
  Alcotest.(check int) "no ffs" 0 (List.length (Netlist.dffs nl));
  Alcotest.(check int) "gates" 40 (List.length (Netlist.gates nl))

(* ---------- profiles ---------- *)

let test_profiles_match_paper_sizes () =
  (* Table I's size column *)
  let expect =
    [
      ("s641", 287); ("s820", 289); ("s832", 379); ("s953", 395);
      ("s1196", 508); ("s1238", 529); ("s1488", 657); ("s5378a", 2779);
      ("s9234a", 5597); ("s13207", 7951); ("s15850a", 9772); ("s38584", 19253);
    ]
  in
  List.iter
    (fun (name, size) ->
      let info = Profiles.find_exn name in
      Alcotest.(check int) (name ^ " size") size info.Profiles.n_gates;
      let nl = Profiles.build info in
      Alcotest.(check int)
        (name ^ " generated gates")
        size
        (List.length (Netlist.gates nl)))
    expect

(* ---------- scale families ---------- *)

let test_family_profiles_generate () =
  (* every profile must yield a valid netlist of exactly the requested
     gate count, deterministically; the bench sweep extends this check
     to 10^6 gates *)
  List.iter
    (fun profile ->
      let name = Generator.profile_name profile in
      List.iter
        (fun gates ->
          let nl = Generator.generate_family ~seed:7 ~profile ~gates () in
          Alcotest.(check int)
            (Printf.sprintf "%s/%d gate count" name gates)
            gates
            (List.length (Netlist.gates nl));
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d has flip-flops" name gates)
            true
            (Netlist.dffs nl <> []);
          let again = Generator.generate_family ~seed:7 ~profile ~gates () in
          Alcotest.(check string)
            (Printf.sprintf "%s/%d deterministic" name gates)
            (Bench_io.to_string nl) (Bench_io.to_string again))
        [ 1_000; 5_000 ])
    Generator.all_profiles

let test_family_profile_names () =
  List.iter
    (fun p ->
      match Generator.profile_of_string (Generator.profile_name p) with
      | Ok p' ->
          Alcotest.(check string)
            "name roundtrip"
            (Generator.profile_name p)
            (Generator.profile_name p')
      | Error m -> Alcotest.fail m)
    Generator.all_profiles;
  (match Generator.profile_of_string "s-like" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match Generator.profile_of_string "nope" with
  | Ok _ -> Alcotest.fail "accepted bogus profile"
  | Error _ -> ()

let test_profiles_unknown () =
  Alcotest.(check bool) "find none" true (Profiles.find "s99999" = None);
  Alcotest.check_raises "find_exn"
    (Invalid_argument "Iscas_profiles.find_exn: unknown benchmark s99999")
    (fun () -> ignore (Profiles.find_exn "s99999"))

let netlist_props =
  let gen_seed = QCheck2.Gen.int_range 0 10_000 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"generated netlists validate and roundtrip"
         ~count:30 gen_seed
         (fun seed ->
           let nl =
             Generator.generate ~seed
               {
                 Generator.design_name = "prop";
                 n_pi = 6;
                 n_po = 5;
                 n_ff = 4;
                 n_gates = 50;
                 levels = 6;
               }
           in
           let nl2 = Bench_io.parse_string (Bench_io.to_string nl) in
           match Sttc_sim.Equiv.check_random ~vectors:512 ~seed:1 nl nl2 with
           | Sttc_sim.Equiv.Equivalent -> true
           | _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"replace+program preserves function" ~count:30
         gen_seed
         (fun seed ->
           let nl =
             Generator.random_combinational ~seed ~n_pi:6 ~n_gates:30 ~n_po:4
           in
           match Netlist.gates nl with
           | [] -> true
           | g :: _ ->
               let nl2 = Transform.replace_gate_with_lut nl g in
               (match Sttc_sim.Equiv.check_sat nl nl2 with
               | Sttc_sim.Equiv.Equivalent -> true
               | _ -> false)));
  ]

let () =
  Alcotest.run "sttc_netlist"
    [
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "duplicate name" `Quick test_builder_duplicate_name;
          Alcotest.test_case "arity mismatch" `Quick test_builder_arity_mismatch;
          Alcotest.test_case "unwired dff" `Quick test_builder_unwired_dff;
          Alcotest.test_case "no outputs" `Quick test_builder_no_outputs;
          Alcotest.test_case "combinational cycle" `Quick test_builder_combinational_cycle;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "topo order" `Quick test_topo_order;
        ] );
      ( "query",
        [
          Alcotest.test_case "cones" `Quick test_query_cones;
          Alcotest.test_case "levels/depth" `Quick test_query_levels_depth;
          Alcotest.test_case "reaches" `Quick test_query_reaches;
          Alcotest.test_case "sequential depth" `Quick test_query_seq_depth;
          Alcotest.test_case "connected pairs" `Quick test_query_connected_pairs;
        ] );
      ( "bench_io",
        [
          Alcotest.test_case "parse" `Quick test_bench_parse;
          Alcotest.test_case "roundtrip semantics" `Quick test_bench_roundtrip_semantics;
          Alcotest.test_case "lut roundtrip" `Quick test_bench_lut_roundtrip;
          Alcotest.test_case "errors" `Quick test_bench_errors;
          Alcotest.test_case "strict errors" `Quick test_bench_strict_errors;
          Alcotest.test_case "constants" `Quick test_bench_constants;
        ] );
      ("verilog", [ Alcotest.test_case "output" `Quick test_verilog_output ]);
      ( "transform",
        [
          Alcotest.test_case "replace preserves ids" `Quick test_transform_replace_preserves_ids;
          Alcotest.test_case "missing gate" `Quick test_transform_missing_gate;
          Alcotest.test_case "extra inputs" `Quick test_transform_extra_inputs;
          Alcotest.test_case "program/strip" `Quick test_transform_program_strip;
          Alcotest.test_case "not a gate" `Quick test_transform_replace_not_a_gate;
          Alcotest.test_case "absorb driver" `Quick test_transform_absorb_driver;
          Alcotest.test_case "absorb rejections" `Quick test_transform_absorb_rejections;
          Alcotest.test_case "sweep" `Quick test_transform_sweep;
        ] );
      ( "iscas_data",
        [
          Alcotest.test_case "genuine benchmarks" `Quick test_iscas_data_genuine;
          Alcotest.test_case "c17 truth" `Quick test_c17_truth;
        ] );
      ( "opt",
        [
          Alcotest.test_case "const fold" `Quick test_opt_const_fold;
          Alcotest.test_case "collapse buffers" `Quick test_opt_collapse_buffers;
          Alcotest.test_case "optimize equivalence" `Quick
            test_opt_optimize_random_equivalence;
        ] );
      ( "profile_stats",
        [ Alcotest.test_case "compute/render" `Quick test_profile_stats ] );
      ( "generator",
        [
          Alcotest.test_case "spec counts" `Quick test_generator_spec_counts;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "validation" `Quick test_generator_validation;
          Alcotest.test_case "combinational" `Quick test_generator_combinational;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "paper sizes" `Quick test_profiles_match_paper_sizes;
          Alcotest.test_case "unknown" `Quick test_profiles_unknown;
        ] );
      ( "families",
        [
          Alcotest.test_case "profiles generate" `Quick
            test_family_profiles_generate;
          Alcotest.test_case "profile names" `Quick test_family_profile_names;
        ] );
      ("properties", netlist_props);
    ]
