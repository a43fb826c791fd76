module Netlist = Sttc_netlist.Netlist
module Ternary = Sttc_logic.Ternary
module Ternary_sim = Sttc_sim.Ternary_sim
module Rng = Sttc_util.Rng
module Lognum = Sttc_util.Lognum
module Hybrid = Sttc_core.Hybrid
module Encode = Sttc_sim.Encode

type lut_progress = {
  lut : Netlist.node_id;
  resolved_rows : int;
  total_rows : int;
  unreachable_rows : int;
  candidates_left : Lognum.t;
}

type result = {
  per_lut : lut_progress list;
  fully_resolved : int;
  lut_count : int;
  resolution : float;
  functional_resolution : float;
  patterns_tried : int;
  oracle_queries : int;
  seconds : float;
}

(* SAT proposals per unresolved row in the targeted phase *)
let target_attempts = 4

let run ?(budget_patterns = 20_000) ?(targeted = false) ?(seed = 0xa77ac)
    hybrid =
  let t0 = Sttc_util.Deadline.now_s () in
  let foundry = Hybrid.foundry_view hybrid in
  let oracle = Oracle.create hybrid in
  let rng = Rng.make seed in
  let luts = Hybrid.lut_ids hybrid in
  let pi_ids = Array.of_list (Netlist.pis foundry) in
  let dff_ids = Array.of_list (Netlist.dffs foundry) in
  let n_in = Array.length pi_ids + Array.length dff_ids in
  let arity_of id =
    match Netlist.kind foundry id with
    | Netlist.Lut { arity; _ } -> arity
    | _ -> invalid_arg "Tt_attack: not a LUT"
  in
  (* resolved.(lut) is a (row -> bool) table being filled in *)
  let resolved = Hashtbl.create 16 in
  let unreachable = Hashtbl.create 16 in
  List.iter
    (fun id ->
      Hashtbl.add resolved id (Array.make (1 lsl arity_of id) None);
      Hashtbl.add unreachable id (Array.make (1 lsl arity_of id) false))
    luts;
  (* Pre-build, per LUT, the two foundry variants where the LUT is forced
     to constant 0 / 1 (every other LUT stays unknown).  These do not
     depend on the pattern. *)
  let forced =
    List.map
      (fun id ->
        Sttc_util.Deadline.check ();
        let const v =
          (if v then Sttc_logic.Truth.const_true
           else Sttc_logic.Truth.const_false)
            ~arity:(arity_of id)
        in
        ( id,
          ( Sttc_netlist.Transform.program_luts foundry [ (id, const false) ],
            Sttc_netlist.Transform.program_luts foundry [ (id, const true) ] ) ))
      luts
  in
  let row_of_fanins values id =
    (* the row index addressed by the LUT's (known) fanin values *)
    let fanins = Netlist.fanins foundry id in
    let rec go k acc =
      if k >= Array.length fanins then Some acc
      else
        match values.(fanins.(k)) with
        | Ternary.Zero -> go (k + 1) acc
        | Ternary.One -> go (k + 1) (acc lor (1 lsl k))
        | Ternary.X -> None
    in
    go 0 0
  in
  let patterns = ref 0 in
  while !patterns < budget_patterns do
    Sttc_util.Deadline.check ();
    incr patterns;
    (* random primary/state assignment *)
    let assignment = Array.init n_in (fun _ -> Rng.bool rng) in
    let pis =
      Array.init (Array.length pi_ids) (fun i ->
          Ternary.of_bool assignment.(i))
    in
    let state =
      Array.init (Array.length dff_ids) (fun i ->
          Ternary.of_bool assignment.(Array.length pi_ids + i))
    in
    (* For each LUT with unresolved rows, test observability of the row
       this pattern justifies. *)
    List.iter
      (fun (id, (nl0, nl1)) ->
        Sttc_util.Deadline.check ();
        let table = Hashtbl.find resolved id in
        (* ternary sim with LUT id forced to 0 / 1, everything else X *)
        let v0 = Ternary_sim.eval_comb ~state nl0 pis
        and v1 = Ternary_sim.eval_comb ~state nl1 pis in
        match row_of_fanins v0 id with
        | None -> ()
        | Some row when table.(row) <> None -> ()
        | Some row ->
            (* find an observation point where the two forcings are known
               and different *)
            let obs =
              let outs0 = Ternary_sim.outputs foundry v0
              and outs1 = Ternary_sim.outputs foundry v1 in
              let candidates = ref [] in
              Array.iteri
                (fun i a ->
                  let b = outs1.(i) in
                  match (a, b) with
                  | Ternary.Zero, Ternary.One | Ternary.One, Ternary.Zero ->
                      candidates := `Po (i, a) :: !candidates
                  | _ -> ())
                outs0;
              (* flip-flop D inputs are also observable via scan *)
              List.iteri
                (fun i ff ->
                  let d = (Netlist.fanins foundry ff).(0) in
                  match (v0.(d), v1.(d)) with
                  | Ternary.Zero, Ternary.One | Ternary.One, Ternary.Zero ->
                      candidates := `Ff (i, v0.(d)) :: !candidates
                  | _ -> ())
                (Netlist.dffs foundry);
              !candidates
            in
            (match obs with
            | [] -> ()
            | point :: _ ->
                (* query the oracle; the observed value tells which forcing
                   matches reality, i.e. the row's truth value *)
                let out = Oracle.query oracle assignment in
                let n_pos = Array.length (Netlist.outputs foundry) in
                let observed, zero_value =
                  match point with
                  | `Po (i, a) -> (out.(i), a)
                  | `Ff (i, a) -> (out.(n_pos + i), a)
                in
                let row_value =
                  (* if the oracle agrees with the v:=0 simulation, the
                     row is 0 *)
                  match zero_value with
                  | Ternary.Zero -> observed
                  | Ternary.One -> not observed
                  | Ternary.X -> assert false
                in
                table.(row) <- Some row_value))
      forced
  done;
  (* ---------- targeted ATPG phase ---------- *)
  if targeted then begin
    let module Cnf = Sttc_logic.Cnf in
    let module Sat = Sttc_logic.Sat in
    (* order of oracle inputs: PIs then state, as the random phase uses *)
    let justifiable id row =
      (* can the row even occur at the LUT's fanins? *)
      let c = Encode.encode foundry in
      Array.iteri
        (fun k src ->
          let l = c.Encode.node_lits.(src) in
          Sttc_logic.Cnf.add_clause c.Encode.cnf
            [ (if (row lsr k) land 1 = 1 then l else -l) ])
        (Netlist.fanins foundry id);
      match Sttc_logic.Sat.solve ~max_conflicts:50_000 c.Encode.cnf with
      | Sttc_logic.Sat.Unsat -> false
      | Sttc_logic.Sat.Sat _ | Sttc_logic.Sat.Unknown _ -> true
    in
    let resolve_row id row =
      let table = Hashtbl.find resolved id in
      if table.(row) <> None then ()
      else if not (justifiable id row) then
        (Hashtbl.find unreachable id).(row) <- true
      else begin
        let attempt = ref 0 in
        let blocked = ref [] in
        while table.(row) = None && !attempt < target_attempts do
          Sttc_util.Deadline.check ();
          incr attempt;
          (* copy A forces the LUT low, copy B high; other keys shared *)
          let c1 = Encode.encode foundry in
          let cnf = c1.Encode.cnf in
          let other_keys =
            List.filter (fun (k, _) -> k <> id) c1.Encode.keys
          in
          let c2 =
            Encode.encode ~cnf ~share_inputs:c1.Encode.inputs
              ~share_keys:other_keys foundry
          in
          Cnf.add_clause cnf [ -c1.Encode.node_lits.(id) ];
          Cnf.add_clause cnf [ c2.Encode.node_lits.(id) ];
          (* justify the row at the LUT fanins *)
          Array.iteri
            (fun k src ->
              let l = c1.Encode.node_lits.(src) in
              Cnf.add_clause cnf [ (if (row lsr k) land 1 = 1 then l else -l) ])
            (Netlist.fanins foundry id);
          (* sensitize: some observation point differs *)
          let diffs =
            List.map2
              (fun (_, l1) (_, l2) ->
                let d = Cnf.fresh_var cnf in
                Cnf.encode_xor cnf d l1 l2;
                d)
              c1.Encode.outputs c2.Encode.outputs
          in
          Cnf.add_clause cnf diffs;
          (* block previously failed patterns *)
          List.iter
            (fun bits ->
              Cnf.add_clause cnf
                (List.mapi
                   (fun i (_, l) -> if bits.(i) then -l else l)
                   c1.Encode.inputs))
            !blocked;
          match Sat.solve ~max_conflicts:50_000 cnf with
          | Sat.Unsat when !blocked = [] ->
              (* justifiable but never observable: the configuration bit
                 cannot influence any observation point under any key of
                 the other missing gates, so it is as functionally
                 irrelevant as an unreachable row *)
              (Hashtbl.find unreachable id).(row) <- true;
              attempt := target_attempts
          | Sat.Unknown _ | Sat.Unsat -> attempt := target_attempts
          | Sat.Sat model ->
              let bits =
                Array.of_list
                  (List.map
                     (fun (_, l) -> Sat.model_value model l)
                     c1.Encode.inputs)
              in
              (* certify under all other-key assignments with ternary sim *)
              let nl0, nl1 = List.assoc id forced in
              let pis_t =
                Array.init (Array.length pi_ids) (fun i ->
                    Ternary.of_bool bits.(i))
              in
              let state_t =
                Array.init (Array.length dff_ids) (fun i ->
                    Ternary.of_bool bits.(Array.length pi_ids + i))
              in
              let v0 = Ternary_sim.eval_comb ~state:state_t nl0 pis_t in
              let v1 = Ternary_sim.eval_comb ~state:state_t nl1 pis_t in
              let certified = ref None in
              (match row_of_fanins v0 id with
              | Some r when r = row ->
                  let outs0 = Ternary_sim.outputs foundry v0
                  and outs1 = Ternary_sim.outputs foundry v1 in
                  Array.iteri
                    (fun i a ->
                      if !certified = None then
                        match (a, outs1.(i)) with
                        | Ternary.Zero, Ternary.One
                        | Ternary.One, Ternary.Zero ->
                            certified := Some (`Po (i, a))
                        | _ -> ())
                    outs0;
                  List.iteri
                    (fun i ff ->
                      if !certified = None then
                        let d = (Netlist.fanins foundry ff).(0) in
                        match (v0.(d), v1.(d)) with
                        | Ternary.Zero, Ternary.One
                        | Ternary.One, Ternary.Zero ->
                            certified := Some (`Ff (i, v0.(d)))
                        | _ -> ())
                    (Netlist.dffs foundry)
              | _ -> ());
              (match !certified with
              | None -> blocked := bits :: !blocked
              | Some point ->
                  let out = Oracle.query oracle bits in
                  let n_pos = Array.length (Netlist.outputs foundry) in
                  let observed, zero_value =
                    match point with
                    | `Po (i, a) -> (out.(i), a)
                    | `Ff (i, a) -> (out.(n_pos + i), a)
                  in
                  let row_value =
                    match zero_value with
                    | Ternary.Zero -> observed
                    | Ternary.One -> not observed
                    | Ternary.X -> assert false
                  in
                  table.(row) <- Some row_value)
        done
      end
    in
    List.iter
      (fun id ->
        let table = Hashtbl.find resolved id in
        Array.iteri (fun row v -> if v = None then resolve_row id row) table)
      luts
  end;
  let per_lut =
    List.map
      (fun id ->
        let table = Hashtbl.find resolved id in
        let total = Array.length table in
        let done_ =
          Array.fold_left
            (fun acc v -> if v = None then acc else acc + 1)
            0 table
        in
        let unreach =
          Array.fold_left
            (fun acc v -> if v then acc + 1 else acc)
            0 (Hashtbl.find unreachable id)
        in
        {
          lut = id;
          resolved_rows = done_;
          total_rows = total;
          unreachable_rows = unreach;
          candidates_left = Lognum.pow (Lognum.of_int 2) (total - done_);
        })
      luts
  in
  let total_rows = List.fold_left (fun a p -> a + p.total_rows) 0 per_lut in
  let done_rows = List.fold_left (fun a p -> a + p.resolved_rows) 0 per_lut in
  let settled_rows =
    List.fold_left (fun a p -> a + p.resolved_rows + p.unreachable_rows) 0 per_lut
  in
  {
    per_lut;
    fully_resolved =
      List.length (List.filter (fun p -> p.resolved_rows = p.total_rows) per_lut);
    lut_count = List.length luts;
    resolution =
      (if total_rows = 0 then 0.
       else float_of_int done_rows /. float_of_int total_rows);
    functional_resolution =
      (if total_rows = 0 then 0.
       else float_of_int settled_rows /. float_of_int total_rows);
    patterns_tried = !patterns;
    oracle_queries = Oracle.queries oracle;
    seconds = Sttc_util.Deadline.now_s () -. t0;
  }
