module Netlist = Sttc_netlist.Netlist
module Ternary = Sttc_logic.Ternary

type values = Ternary.v array

let eval_comb ?state nl pis =
  let pi_ids = Array.of_list (Netlist.pis nl) in
  if Array.length pis <> Array.length pi_ids then
    invalid_arg "Ternary_sim.eval_comb: PI count mismatch";
  let dff_ids = Array.of_list (Netlist.dffs nl) in
  let state =
    match state with
    | None -> Array.make (Array.length dff_ids) Ternary.X
    | Some s ->
        if Array.length s <> Array.length dff_ids then
          invalid_arg "Ternary_sim.eval_comb: state length mismatch"
        else s
  in
  let values = Array.make (Netlist.node_count nl) Ternary.X in
  Array.iteri (fun i id -> values.(id) <- pis.(i)) pi_ids;
  Array.iteri (fun i id -> values.(id) <- state.(i)) dff_ids;
  Array.iter
    (fun id ->
      let node = Netlist.node nl id in
      match node.Netlist.kind with
      | Netlist.Pi | Netlist.Dff -> ()
      | Netlist.Const v -> values.(id) <- Ternary.of_bool v
      | Netlist.Gate fn ->
          let inputs = Array.map (fun s -> values.(s)) node.Netlist.fanins in
          values.(id) <- Ternary.eval_gate fn inputs
      | Netlist.Lut { config = Some c; _ } ->
          let inputs = Array.map (fun s -> values.(s)) node.Netlist.fanins in
          values.(id) <- Ternary.eval_truth c inputs
      | Netlist.Lut { config = None; _ } -> values.(id) <- Ternary.X)
    (Netlist.topo_order nl);
  values

let outputs nl values =
  Array.map (fun (_, id) -> values.(id)) (Netlist.outputs nl)
