module Netlist = Sttc_netlist.Netlist
module Rng = Sttc_util.Rng

type io_path = {
  nodes : Netlist.node_id list;
  ff_count : int;
}

type segment = {
  gates : Netlist.node_id list;
  launches_at_ff : bool;
  captures_at_ff : bool;
}

let is_po_driver nl =
  let set = Hashtbl.create 32 in
  List.iter (fun id -> Hashtbl.replace set id ()) (Netlist.pos nl);
  fun id -> Hashtbl.mem set id

(* Random backward walk from [start] to a primary input.  Returns the node
   list PI..start (inclusive).  Walks through flip-flops (sequential
   edges), failing on revisits to avoid looping in FF cycles. *)
let walk_back ~rng nl start =
  let visited = Hashtbl.create 64 in
  let rec go id acc =
    if Hashtbl.mem visited id then None
    else begin
      Hashtbl.add visited id ();
      let acc = id :: acc in
      match Netlist.kind nl id with
      | Netlist.Pi -> Some acc
      | Netlist.Const _ -> None
      | Netlist.Gate _ | Netlist.Lut _ | Netlist.Dff ->
          let fanins = Netlist.fanins nl id in
          if Array.length fanins = 0 then None
          else go (Rng.pick rng fanins) acc
    end
  in
  go start []

(* Random forward walk from [start] to a primary-output driver.  Returns
   the node list start..PO-driver (inclusive). *)
let walk_fwd ~rng nl ~po_driver start =
  let visited = Hashtbl.create 64 in
  let rec go id acc =
    if Hashtbl.mem visited id then None
    else begin
      Hashtbl.add visited id ();
      let acc = id :: acc in
      if po_driver id then Some (List.rev acc)
      else
        match Netlist.fanouts nl id with
        | [] -> None
        | outs -> go (Rng.pick_list rng outs) acc
    end
  in
  go start []

let count_ffs nl nodes =
  List.fold_left
    (fun acc id ->
      match Netlist.kind nl id with Netlist.Dff -> acc + 1 | _ -> acc)
    0 nodes

(* [po_driver] is hoisted to the caller: building the PO-driver set is
   O(#POs), and [sample] calls this once per sampled component — paying
   it per call made sampling quadratic on the 10^5..10^6-gate scale
   families. *)
let find_io_path_with ~rng ~po_driver nl start =
  (* Several random walks; keep the flip-flop-richest path found, since the
     selection procedure wants paths "containing at least two flip-flops". *)
  let attempts = 8 in
  let best = ref None in
  for _ = 1 to attempts do
    match walk_back ~rng nl start with
    | None -> ()
    | Some back -> (
        match walk_fwd ~rng nl ~po_driver start with
        | None -> ()
        | Some fwd ->
            (* [back] ends with start; [fwd] begins with start *)
            let nodes = back @ List.tl fwd in
            let candidate = { nodes; ff_count = count_ffs nl nodes } in
            (match !best with
            | Some b when b.ff_count >= candidate.ff_count -> ()
            | _ -> best := Some candidate))
  done;
  !best

let path_key nodes = String.concat "," (List.map string_of_int nodes)

let sample ~rng ?(fraction = 0.02) ?(min_ffs = 2) ?(exclude_critical = []) nl =
  if fraction <= 0. || fraction > 1. then invalid_arg "Paths.sample: fraction";
  let components = Array.of_list (Netlist.gates nl @ Netlist.luts nl) in
  if Array.length components = 0 then []
  else begin
    let count =
      max 8 (int_of_float (fraction *. float_of_int (Array.length components)))
    in
    let picked = Rng.sample rng count components in
    let po_driver = is_po_driver nl in
    let seen = Hashtbl.create 64 in
    let paths = ref [] in
    Array.iter
      (fun id ->
        Sttc_util.Deadline.check ();
        match find_io_path_with ~rng ~po_driver nl id with
        | None -> ()
        | Some p ->
            let key = path_key p.nodes in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              paths := p :: !paths
            end)
      picked;
    let all = !paths in
    (* Keep paths with >= min_ffs flip-flops, relaxing when none qualify
       (small or shallow circuits). *)
    let rec select need =
      let kept = List.filter (fun p -> p.ff_count >= need) all in
      if kept <> [] || need = 0 then kept else select (need - 1)
    in
    let kept = select min_ffs in
    (* Drop paths touching the critical path.  Preferred: exclude any path
       sharing a node with it (keeps selection on slack-rich logic).  If
       that empties the pool (tiny circuits where everything overlaps),
       fall back to the literal reading — only paths containing the whole
       critical path are dropped. *)
    let module Int_set = Set.Make (Int) in
    let crit = Int_set.of_list exclude_critical in
    let kept =
      if Int_set.is_empty crit then kept
      else begin
        let disjoint =
          List.filter
            (fun p ->
              not (List.exists (fun id -> Int_set.mem id crit) p.nodes))
            kept
        in
        if disjoint <> [] then disjoint
        else
          List.filter
            (fun p -> not (Int_set.subset crit (Int_set.of_list p.nodes)))
            kept
      end
    in
    (* Longest path = most flip-flops (the paper's depth); ties prefer the
       path with fewer nodes, i.e. the densest sequential chain. *)
    List.sort
      (fun a b ->
        match Int.compare b.ff_count a.ff_count with
        | 0 -> Int.compare (List.length a.nodes) (List.length b.nodes)
        | c -> c)
      kept
  end

let segments nl path =
  (* Split at flip-flops; PIs/PO drivers bound the first/last segment. *)
  let flush acc_gates ~launch ~capture segs =
    match acc_gates with
    | [] -> segs
    | _ ->
        { gates = List.rev acc_gates; launches_at_ff = launch; captures_at_ff = capture }
        :: segs
  in
  let rec go nodes launch acc_gates segs =
    match nodes with
    | [] -> List.rev (flush acc_gates ~launch ~capture:false segs)
    | id :: rest -> (
        match Netlist.kind nl id with
        | Netlist.Dff ->
            let segs = flush acc_gates ~launch ~capture:true segs in
            go rest true [] segs
        | Netlist.Pi | Netlist.Const _ -> go rest launch acc_gates segs
        | Netlist.Gate _ | Netlist.Lut _ -> go rest launch (id :: acc_gates) segs)
  in
  go path.nodes false [] []
