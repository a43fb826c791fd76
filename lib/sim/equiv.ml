module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Cnf = Sttc_logic.Cnf
module Sat = Sttc_logic.Sat
module Bdd = Sttc_logic.Bdd
module Rng = Sttc_util.Rng

type failure = {
  witness : (string * bool) list;
  signal : string;
}

type result = Equivalent | Different of failure | Inconclusive of string

(* ---------- shared input space ---------- *)

let input_names nl =
  List.map (Netlist.name nl) (Netlist.pis nl)
  @ List.map (Netlist.name nl) (Netlist.dffs nl)

let check_interfaces a b =
  let sort = List.sort String.compare in
  let ins_a = sort (input_names a) and ins_b = sort (input_names b) in
  if ins_a <> ins_b then Some "primary input / state spaces differ"
  else
    let outs nl =
      sort (Array.to_list (Array.map fst (Netlist.outputs nl)))
    in
    if outs a <> outs b then Some "primary output sets differ" else None

(* ---------- random simulation ---------- *)

let check_random ?(vectors = 4096) ~seed a b =
  match check_interfaces a b with
  | Some m -> Inconclusive m
  | None -> (
      match (Simulator.create a, Simulator.create b) with
      | exception Invalid_argument m -> Inconclusive m
      | sim_a, sim_b ->
          let rng = Rng.make seed in
          let pis_a = Array.of_list (Netlist.pis a) in
          let pi_names = Array.map (Netlist.name a) pis_a in
          let dffs_a = Array.of_list (Netlist.dffs a) in
          let dff_names = Array.map (Netlist.name a) dffs_a in
          (* order B's state to match A's names *)
          let out_names = Array.map fst (Netlist.outputs a) in
          let out_index_b =
            let names_b = Array.map fst (Netlist.outputs b) in
            Array.map
              (fun n ->
                let rec find i =
                  if names_b.(i) = n then i else find (i + 1)
                in
                find 0)
              out_names
          in
          let dff_order_b =
            let names_b =
              Array.of_list (List.map (Netlist.name b) (Netlist.dffs b))
            in
            Array.map
              (fun n ->
                let rec find i =
                  if names_b.(i) = n then i else find (i + 1)
                in
                find 0)
              dff_names
          in
          let batches = max 1 ((vectors + 63) / 64) in
          let failure = ref None in
          (let batch = ref 0 in
           while !failure = None && !batch < batches do
             incr batch;
             let pi_lanes =
               Array.map (fun _ -> Rng.int64 rng) pis_a
             in
             let st_lanes = Array.map (fun _ -> Rng.int64 rng) dffs_a in
             Simulator.set_state sim_a st_lanes;
             let st_b = Array.make (Array.length dff_order_b) 0L in
             Array.iteri (fun i bi -> st_b.(bi) <- st_lanes.(i)) dff_order_b;
             Simulator.set_state sim_b st_b;
             let outs_a = Simulator.eval_comb sim_a pi_lanes in
             let outs_b = Simulator.eval_comb sim_b pi_lanes in
             (* also compare next-state functions *)
             let next_a = Simulator.state (let _ = Simulator.step sim_a pi_lanes in sim_a) in
             Simulator.set_state sim_b st_b;
             let next_b_raw =
               let _ = Simulator.step sim_b pi_lanes in
               Simulator.state sim_b
             in
             let next_b = Array.make (Array.length next_a) 0L in
             Array.iteri (fun i bi -> next_b.(i) <- next_b_raw.(bi)) dff_order_b;
             let report signal diff =
               (* extract the first differing lane as a witness *)
               let lane =
                 let rec find l =
                   if Int64.logand (Int64.shift_right_logical diff l) 1L = 1L
                   then l
                   else find (l + 1)
                 in
                 find 0
               in
               let bit v =
                 Int64.logand (Int64.shift_right_logical v lane) 1L = 1L
               in
               let witness =
                 Array.to_list
                   (Array.mapi (fun i n -> (n, bit pi_lanes.(i))) pi_names)
                 @ Array.to_list
                     (Array.mapi (fun i n -> (n, bit st_lanes.(i))) dff_names)
               in
               failure := Some { witness; signal }
             in
             Array.iteri
               (fun i name ->
                 if !failure = None then begin
                   let diff =
                     Int64.logxor outs_a.(i) outs_b.(out_index_b.(i))
                   in
                   if diff <> 0L then report name diff
                 end)
               out_names;
             Array.iteri
               (fun i name ->
                 if !failure = None then begin
                   let diff = Int64.logxor next_a.(i) next_b.(i) in
                   if diff <> 0L then report name diff
                 end)
               dff_names
           done);
          (match !failure with
          | Some f -> Different f
          | None -> Equivalent))

(* ---------- SAT miter ---------- *)

let check_sat ?(max_conflicts = max_int) a b =
  match check_interfaces a b with
  | Some m -> Inconclusive m
  | None -> (
      (* [b] is encoded first and [a] shares its input literals; a key
         literal means an unprogrammed LUT, which has no single function
         to compare *)
      let encode ?cnf ?share_inputs nl =
        let k = Encode.encode ?cnf ?share_inputs nl in
        match k.Encode.keys with
        | [] -> Ok k
        | (id, _) :: _ ->
            Error ("Equiv.check_sat: unprogrammed LUT " ^ Netlist.name nl id)
      in
      let ( let* ) = Result.bind in
      match
        let* kb = encode b in
        let* ka = encode ~cnf:kb.Encode.cnf ~share_inputs:kb.Encode.inputs a in
        Ok (ka, kb)
      with
      | exception Invalid_argument m -> Inconclusive m
      | Error m -> Inconclusive m
      | Ok (ka, kb) ->
          let cnf = kb.Encode.cnf in
          (* [outputs] is the POs, then the flip-flop D-inputs; a PO may
             carry a flip-flop's name, so each half is matched apart *)
          let halves nl (k : Encode.keyed) =
            let n_pos = Array.length (Netlist.outputs nl) in
            ( List.filteri (fun i _ -> i < n_pos) k.Encode.outputs,
              List.filteri (fun i _ -> i >= n_pos) k.Encode.outputs )
          in
          let pos_a, ffs_a = halves a ka and pos_b, ffs_b = halves b kb in
          let miter outs_a outs_b =
            List.map
              (fun (name, la) ->
                let d = Cnf.fresh_var cnf in
                Cnf.encode_xor cnf d la (List.assoc name outs_b);
                (name, d))
              outs_a
          in
          let diffs = miter pos_a pos_b @ miter ffs_a ffs_b in
          Cnf.add_clause cnf (List.map snd diffs);
          let solver = Sat.Solver.of_cnf cnf in
          (match Sat.Solver.solve ~max_conflicts solver with
          | Sat.Unknown _ -> Inconclusive "SAT conflict budget exhausted"
          | Sat.Unsat -> Equivalent
          | Sat.Sat model ->
              let witness =
                List.map
                  (fun (name, v) -> (name, Sat.model_value model v))
                  kb.Encode.inputs
                |> List.sort (fun (x, _) (y, _) -> String.compare x y)
              in
              let signal =
                match
                  List.find_opt
                    (fun (_, d) -> Sat.model_value model d)
                    diffs
                with
                | Some (name, _) -> name
                | None -> "?"
              in
              Different { witness; signal }))

let check_bdd a b =
  match check_interfaces a b with
  | Some m -> Inconclusive m
  | None -> (
      let m = Bdd.manager () in
      let vars = Hashtbl.create 64 in
      let next = ref 0 in
      let input_bdd name =
        match Hashtbl.find_opt vars name with
        | Some v -> Bdd.var m v
        | None ->
            let v = !next in
            incr next;
            Hashtbl.add vars name v;
            Bdd.var m v
      in
      let build nl =
        let lit = Array.make (Netlist.node_count nl) (Bdd.zero m) in
        Array.iter
          (fun id ->
            let node = Netlist.node nl id in
            match node.Netlist.kind with
            | Netlist.Pi | Netlist.Dff ->
                lit.(id) <- input_bdd node.Netlist.name
            | Netlist.Const v ->
                lit.(id) <- (if v then Bdd.one m else Bdd.zero m)
            | Netlist.Gate fn ->
                let ins =
                  Array.to_list
                    (Array.map (fun s -> lit.(s)) node.Netlist.fanins)
                in
                lit.(id) <-
                  (match fn with
                  | Sttc_logic.Gate_fn.Buf -> List.hd ins
                  | Sttc_logic.Gate_fn.Not -> Bdd.lnot m (List.hd ins)
                  | Sttc_logic.Gate_fn.And _ -> Bdd.land_list m ins
                  | Sttc_logic.Gate_fn.Nand _ ->
                      Bdd.lnot m (Bdd.land_list m ins)
                  | Sttc_logic.Gate_fn.Or _ -> Bdd.lor_list m ins
                  | Sttc_logic.Gate_fn.Nor _ -> Bdd.lnot m (Bdd.lor_list m ins)
                  | Sttc_logic.Gate_fn.Xor _ -> Bdd.lxor_list m ins
                  | Sttc_logic.Gate_fn.Xnor _ ->
                      Bdd.lnot m (Bdd.lxor_list m ins))
            | Netlist.Lut { config = Some c; _ } ->
                (* Shannon-style: OR of on-set cubes over fanin BDDs *)
                let ins = Array.map (fun s -> lit.(s)) node.Netlist.fanins in
                let acc = ref (Bdd.zero m) in
                for r = 0 to (1 lsl Truth.arity c) - 1 do
                  if Truth.row c r then begin
                    let cube = ref (Bdd.one m) in
                    Array.iteri
                      (fun k f ->
                        let f' =
                          if (r lsr k) land 1 = 1 then f else Bdd.lnot m f
                        in
                        cube := Bdd.land_ m !cube f')
                      ins;
                    acc := Bdd.lor_ m !acc !cube
                  end
                done;
                lit.(id) <- !acc
            | Netlist.Lut { config = None; _ } ->
                invalid_arg
                  ("Equiv.check_bdd: unprogrammed LUT " ^ node.Netlist.name))
          (Netlist.topo_order nl);
        lit
      in
      match (build a, build b) with
      | exception Invalid_argument msg -> Inconclusive msg
      | lit_a, lit_b ->
          let pairs =
            Array.to_list
              (Array.map
                 (fun (name, id) ->
                   let id_b =
                     let rec find i =
                       let name_b, idb = (Netlist.outputs b).(i) in
                       if name_b = name then idb else find (i + 1)
                     in
                     find 0
                   in
                   (name, lit_a.(id), lit_b.(id_b)))
                 (Netlist.outputs a))
            @ List.map
                (fun ff ->
                  let name = Netlist.name a ff in
                  let da = lit_a.((Netlist.fanins a ff).(0)) in
                  let ffb = Netlist.find_exn b name in
                  let db = lit_b.((Netlist.fanins b ffb).(0)) in
                  (name, da, db))
                (Netlist.dffs a)
          in
          let rec check = function
            | [] -> Equivalent
            | (name, fa, fb) :: rest ->
                if Bdd.equal fa fb then check rest
                else
                  let diff = Bdd.lxor_ m fa fb in
                  let assignment =
                    match Bdd.any_sat diff with
                    | Some l -> l
                    | None -> []
                  in
                  let by_index =
                    Hashtbl.fold (fun n v acc -> (v, n) :: acc) vars []
                  in
                  let witness =
                    List.map
                      (fun (v, value) -> (List.assoc v by_index, value))
                      assignment
                  in
                  Different { witness; signal = name }
          in
          check pairs)
