module Netlist = Sttc_netlist.Netlist
module Gate_fn = Sttc_logic.Gate_fn
module Lognum = Sttc_util.Lognum
module Rng = Sttc_util.Rng

(* NAND2, NOR2, XNOR2: 3 per cell, vs 6 per 2-input STT LUT *)
let candidate_functions = [ Gate_fn.Nand 2; Gate_fn.Nor 2; Gate_fn.Xnor 2 ]

type t = {
  hybrid : Hybrid.t;
  cells : Netlist.node_id list;
}

let eligible nl =
  List.filter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Gate fn -> List.mem fn candidate_functions
      | _ -> false)
    (Netlist.gates nl)

let make nl cells =
  let ok = eligible nl in
  List.iter
    (fun id ->
      if not (List.mem id ok) then
        invalid_arg "Camouflage.make: gate is not a camouflageable cell")
    cells;
  { hybrid = Hybrid.make nl cells; cells }

let random ~rng ~count nl =
  let pool = Array.of_list (eligible nl) in
  if Array.length pool = 0 then
    invalid_arg "Camouflage.random: no eligible cells";
  make nl (Array.to_list (Rng.sample rng count pool))

let cell_count t = List.length t.cells
let hybrid t = t.hybrid

let search_space t =
  Lognum.pow (Lognum.of_int (List.length candidate_functions)) (cell_count t)

let sat_candidates t =
  let tables = List.map Gate_fn.truth candidate_functions in
  List.map (fun id -> (id, tables)) t.cells
