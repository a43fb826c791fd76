module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Gate_fn = Sttc_logic.Gate_fn

type t = {
  nl : Netlist.t;
  order : Netlist.node_id array;
  pis : Netlist.node_id array;
  dffs : Netlist.node_id array;
  out_drivers : Netlist.node_id array;
  config : Truth.t option array; (* per node, for LUT nodes *)
  values : int64 array;
  ff_state : int64 array; (* by dff position *)
}

let eval_truth_lanes table inputs =
  let n = Truth.arity table in
  if Array.length inputs <> n then
    invalid_arg "Simulator.eval_truth_lanes: arity";
  let out = ref 0L in
  for r = 0 to (1 lsl n) - 1 do
    if Truth.row table r then begin
      (* lanes where the inputs spell row r *)
      let m = ref (-1L) in
      for k = 0 to n - 1 do
        let v = inputs.(k) in
        m := Int64.logand !m (if (r lsr k) land 1 = 1 then v else Int64.lognot v)
      done;
      out := Int64.logor !out !m
    end
  done;
  !out

let gate_lanes fn inputs =
  let land_all () = Array.fold_left Int64.logand (-1L) inputs in
  let lor_all () = Array.fold_left Int64.logor 0L inputs in
  let lxor_all () = Array.fold_left Int64.logxor 0L inputs in
  match fn with
  | Gate_fn.Buf -> inputs.(0)
  | Gate_fn.Not -> Int64.lognot inputs.(0)
  | Gate_fn.And _ -> land_all ()
  | Gate_fn.Nand _ -> Int64.lognot (land_all ())
  | Gate_fn.Or _ -> lor_all ()
  | Gate_fn.Nor _ -> Int64.lognot (lor_all ())
  | Gate_fn.Xor _ -> lxor_all ()
  | Gate_fn.Xnor _ -> Int64.lognot (lxor_all ())

let create ?(configs = []) nl =
  let n = Netlist.node_count nl in
  let config = Array.make n None in
  Netlist.iter
    (fun id node ->
      match node.Netlist.kind with
      | Netlist.Lut { config = c; _ } -> config.(id) <- c
      | _ -> ())
    nl;
  List.iter
    (fun (id, c) ->
      match Netlist.kind nl id with
      | Netlist.Lut { arity; _ } ->
          if Truth.arity c <> arity then
            invalid_arg "Simulator.create: config arity mismatch";
          config.(id) <- Some c
      | _ -> invalid_arg "Simulator.create: config target is not a LUT")
    configs;
  Netlist.iter
    (fun id node ->
      match node.Netlist.kind with
      | Netlist.Lut _ when config.(id) = None ->
          invalid_arg
            ("Simulator.create: unprogrammed LUT " ^ node.Netlist.name)
      | _ -> ())
    nl;
  let dffs = Array.of_list (Netlist.dffs nl) in
  {
    nl;
    order = Netlist.topo_order nl;
    pis = Array.of_list (Netlist.pis nl);
    dffs;
    out_drivers = Array.map snd (Netlist.outputs nl);
    config;
    values = Array.make n 0L;
    ff_state = Array.make (Array.length dffs) 0L;
  }

let reset t = Array.fill t.ff_state 0 (Array.length t.ff_state) 0L

let set_state t st =
  if Array.length st <> Array.length t.ff_state then
    invalid_arg "Simulator.set_state: wrong length";
  Array.blit st 0 t.ff_state 0 (Array.length st)

let state t = Array.copy t.ff_state

let eval_into t pi_lanes =
  if Array.length pi_lanes <> Array.length t.pis then
    invalid_arg "Simulator: PI count mismatch";
  Array.iteri (fun i pi -> t.values.(pi) <- pi_lanes.(i)) t.pis;
  Array.iteri (fun i ff -> t.values.(ff) <- t.ff_state.(i)) t.dffs;
  Array.iter
    (fun id ->
      let node = Netlist.node t.nl id in
      match node.Netlist.kind with
      | Netlist.Pi | Netlist.Dff -> ()
      | Netlist.Const v -> t.values.(id) <- (if v then -1L else 0L)
      | Netlist.Gate fn ->
          let inputs = Array.map (fun s -> t.values.(s)) node.Netlist.fanins in
          t.values.(id) <- gate_lanes fn inputs
      | Netlist.Lut _ ->
          let inputs = Array.map (fun s -> t.values.(s)) node.Netlist.fanins in
          let table =
            match t.config.(id) with
            | Some c -> c
            | None -> assert false (* rejected in create *)
          in
          t.values.(id) <- eval_truth_lanes table inputs)
    t.order

let outputs_of_values t = Array.map (fun d -> t.values.(d)) t.out_drivers

let eval_comb t pi_lanes =
  eval_into t pi_lanes;
  outputs_of_values t

let step t pi_lanes =
  eval_into t pi_lanes;
  let outs = outputs_of_values t in
  Array.iteri
    (fun i ff ->
      let d = (Netlist.fanins t.nl ff).(0) in
      t.ff_state.(i) <- t.values.(d))
    t.dffs;
  outs

let node_values t = Array.copy t.values
