module Rng = Sttc_util.Rng

type spec = {
  design_name : string;
  n_pi : int;
  n_po : int;
  n_ff : int;
  n_gates : int;
  levels : int;
}

let default_spec =
  {
    design_name = "smoke";
    n_pi = 8;
    n_po = 8;
    n_ff = 6;
    n_gates = 60;
    levels = 6;
  }

let validate spec =
  if spec.n_pi < 1 then invalid_arg "Generator: n_pi >= 1 required";
  if spec.n_po < 1 then invalid_arg "Generator: n_po >= 1 required";
  if spec.n_ff < 0 then invalid_arg "Generator: n_ff >= 0 required";
  if spec.n_gates < 1 then invalid_arg "Generator: n_gates >= 1 required";
  if spec.levels < 1 then invalid_arg "Generator: levels >= 1 required"

(* Fan-in distribution loosely matching synthesized standard-cell netlists:
   mostly 2-input cells, a tail of 3/4-input, some inverters/buffers. *)
let pick_arity rng =
  let r = Rng.int rng 100 in
  if r < 12 then 1 else if r < 70 then 2 else if r < 88 then 3 else 4

let pick_fn rng arity =
  if arity = 1 then if Rng.int rng 100 < 80 then Sttc_logic.Gate_fn.Not
    else Sttc_logic.Gate_fn.Buf
  else
    let r = Rng.int rng 100 in
    if r < 25 then Sttc_logic.Gate_fn.Nand arity
    else if r < 45 then Sttc_logic.Gate_fn.Nor arity
    else if r < 65 then Sttc_logic.Gate_fn.And arity
    else if r < 82 then Sttc_logic.Gate_fn.Or arity
    else if r < 92 then Sttc_logic.Gate_fn.Xor arity
    else Sttc_logic.Gate_fn.Xnor arity

(* [hub_bias = Some pct] redirects [pct]% of non-level-pinning fanin draws
   to a small fixed pool of level-0 "hub" signals (clock enables, resets —
   the high-fanout nets of real netlists).  [None] performs no extra RNG
   draws, so circuits generated before this parameter existed are
   bit-identical. *)
let generate_internal ?hub_bias ~seed spec =
  validate spec;
  let rng = Rng.make (seed lxor Hashtbl.hash spec.design_name) in
  let b = Netlist.Builder.create ~design_name:spec.design_name () in
  let pis =
    Array.init spec.n_pi (fun i -> Netlist.Builder.add_pi b (Printf.sprintf "pi%d" i))
  in
  let ffs =
    Array.init spec.n_ff (fun i ->
        Netlist.Builder.add_dff_deferred b (Printf.sprintf "ff%d" i))
  in
  (* by_level.(l) = signals whose combinational level is l *)
  let levels = max 1 spec.levels in
  let by_level = Array.make (levels + 1) [||] in
  by_level.(0) <- Array.append pis ffs;
  (* Distribute gates over levels 1..levels, at least one per level while
     the budget lasts. *)
  let per_level = Array.make (levels + 1) 0 in
  let remaining = ref spec.n_gates in
  for l = 1 to levels do
    if !remaining > 0 then begin
      per_level.(l) <- 1;
      decr remaining
    end
  done;
  while !remaining > 0 do
    (* Bias towards shallow levels (min of two uniform draws): real
       synthesized circuits are wide near the inputs and narrow at the
       deepest logic levels, leaving only a few near-critical paths. *)
    let l = 1 + min (Rng.int rng levels) (Rng.int rng levels) in
    per_level.(l) <- per_level.(l) + 1;
    decr remaining
  done;
  let gate_count = ref 0 in
  (* [prior_signals] only ever contains signals from strictly earlier
     levels, so every fanin draw keeps the levelized depth bound intact *)
  let prior_signals = Sttc_util.Growable.create () in
  let consumed = Hashtbl.create 256 in
  Array.iter (fun id -> ignore (Sttc_util.Growable.push prior_signals id)) by_level.(0);
  let hubs =
    match hub_bias with
    | None -> None
    | Some pct ->
        let l0 = by_level.(0) in
        Some (pct, Array.sub l0 0 (min 64 (Array.length l0)))
  in
  for l = 1 to levels do
    Sttc_util.Deadline.check ();
    (* snapshot once per level: [prior_signals] only grows between levels,
       so this is identical to converting at each use, without the O(n)
       copy inside the retry loops (which matters at 10^6 gates) *)
    let prior_arr = Sttc_util.Growable.to_array prior_signals in
    let created = Sttc_util.Growable.create () in
    for _ = 1 to per_level.(l) do
      let arity = pick_arity rng in
      let fn = pick_fn rng arity in
      (* first fanin from level l-1 (pins this gate's level); fall back to
         any earlier level when l-1 is empty *)
      let prev =
        if Array.length by_level.(l - 1) > 0 then by_level.(l - 1)
        else prior_arr
      in
      let first = Rng.pick rng prev in
      let rest =
        List.init (arity - 1) (fun _ ->
            match hubs with
            | Some (pct, pool) when Rng.int rng 100 < pct -> Rng.pick rng pool
            | _ ->
                (* bias towards recent levels for locality, fall back
                   uniform *)
                let source_level =
                  if Rng.int rng 100 < 60 then l - 1 else Rng.int rng l
                in
                let pool =
                  if Array.length by_level.(source_level) > 0 then
                    by_level.(source_level)
                  else prior_arr
                in
                Rng.pick rng pool)
      in
      (* gates must have distinct fanins to be meaningful; retry duplicates
         cheaply by drawing from the global pool *)
      let inputs =
        let seen = Hashtbl.create 4 in
        List.map
          (fun cand ->
            let cand = ref cand in
            let attempts = ref 0 in
            while Hashtbl.mem seen !cand && !attempts < 10 do
              cand := Rng.pick rng prior_arr;
              incr attempts
            done;
            Hashtbl.replace seen !cand ();
            !cand)
          (first :: rest)
      in
      (* degenerate duplicates may survive in tiny circuits; drop repeats *)
      let inputs = List.sort_uniq Int.compare inputs in
      let arity = List.length inputs in
      let fn =
        if arity = 1 then
          (match fn with
          | Sttc_logic.Gate_fn.Buf | Sttc_logic.Gate_fn.Not -> fn
          | Sttc_logic.Gate_fn.Nand _ | Sttc_logic.Gate_fn.Nor _
          | Sttc_logic.Gate_fn.Xnor _ ->
              Sttc_logic.Gate_fn.Not
          | Sttc_logic.Gate_fn.And _ | Sttc_logic.Gate_fn.Or _
          | Sttc_logic.Gate_fn.Xor _ ->
              Sttc_logic.Gate_fn.Buf)
        else
          match fn with
          | Sttc_logic.Gate_fn.Buf | Sttc_logic.Gate_fn.Not -> fn
          | Sttc_logic.Gate_fn.And _ -> Sttc_logic.Gate_fn.And arity
          | Sttc_logic.Gate_fn.Nand _ -> Sttc_logic.Gate_fn.Nand arity
          | Sttc_logic.Gate_fn.Or _ -> Sttc_logic.Gate_fn.Or arity
          | Sttc_logic.Gate_fn.Nor _ -> Sttc_logic.Gate_fn.Nor arity
          | Sttc_logic.Gate_fn.Xor _ -> Sttc_logic.Gate_fn.Xor arity
          | Sttc_logic.Gate_fn.Xnor _ -> Sttc_logic.Gate_fn.Xnor arity
      in
      let id =
        Netlist.Builder.add_gate b (Printf.sprintf "g%d" !gate_count) fn inputs
      in
      List.iter (fun src -> Hashtbl.replace consumed src ()) inputs;
      incr gate_count;
      ignore (Sttc_util.Growable.push created id)
    done;
    by_level.(l) <- Sttc_util.Growable.to_array created;
    Array.iter
      (fun id -> ignore (Sttc_util.Growable.push prior_signals id))
      by_level.(l)
  done;
  (* Sinks: FF inputs and POs.  First consume gates that no other gate
     reads (they would otherwise dangle), deepest level first; then fall
     back to random late-level gates. *)
  let dangling = Sttc_util.Growable.create () in
  for l = levels downto 1 do
    Array.iter
      (fun id ->
        if not (Hashtbl.mem consumed id) then
          ignore (Sttc_util.Growable.push dangling id))
      by_level.(l)
  done;
  let late_pool =
    let acc = Sttc_util.Growable.create () in
    let lo = max 1 (levels / 2) in
    for l = lo to levels do
      Array.iter (fun id -> ignore (Sttc_util.Growable.push acc id)) by_level.(l)
    done;
    if Sttc_util.Growable.is_empty acc then
      Sttc_util.Growable.to_array prior_signals
    else Sttc_util.Growable.to_array acc
  in
  let dangle_pos = ref 0 in
  let next_sink ?(pool = late_pool) () =
    if !dangle_pos < Sttc_util.Growable.length dangling then begin
      let id = Sttc_util.Growable.get dangling !dangle_pos in
      incr dangle_pos;
      id
    end
    else Rng.pick rng pool
  in
  (* Flip-flops split between short-hop state chains (D driven from a
     shallow level, as in counters and shift registers) and deep datapath
     capture; without the short hops every FF-to-FF segment would span the
     whole combinational depth, which real circuits do not do. *)
  let shallow_pool =
    let acc = Sttc_util.Growable.create () in
    let hi = max 1 (min levels 3) in
    for l = 1 to hi do
      Array.iter (fun id -> ignore (Sttc_util.Growable.push acc id)) by_level.(l)
    done;
    if Sttc_util.Growable.is_empty acc then late_pool
    else Sttc_util.Growable.to_array acc
  in
  Array.iter
    (fun ff ->
      (* Short-hop FFs draw straight from the shallow pool (bypassing the
         dangling queue, which is dominated by deep gates). *)
      let d =
        if Rng.int rng 100 < 55 then Rng.pick rng shallow_pool
        else next_sink ()
      in
      Netlist.Builder.set_dff_input b ff d)
    ffs;
  for i = 0 to spec.n_po - 1 do
    Netlist.Builder.add_output b (Printf.sprintf "po%d" i) (next_sink ())
  done;
  Netlist.Builder.finalize b

let generate ~seed spec = generate_internal ~seed spec

(* ---------- parameterized scale families ---------- *)

type profile = Slike | Wide | Deep | Fanout_heavy

let profile_name = function
  | Slike -> "slike"
  | Wide -> "wide"
  | Deep -> "deep"
  | Fanout_heavy -> "fanout"

let profile_of_string = function
  | "slike" | "s-like" -> Ok Slike
  | "wide" -> Ok Wide
  | "deep" -> Ok Deep
  | "fanout" | "fanout-heavy" -> Ok Fanout_heavy
  | s -> Error (Printf.sprintf "unknown profile %S (slike|wide|deep|fanout)" s)

let all_profiles = [ Slike; Wide; Deep; Fanout_heavy ]

let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 (max 1 n)

let family_spec ?(profile = Slike) ~gates () =
  if gates < 8 then invalid_arg "Generator.family_spec: gates >= 8 required";
  let b = ilog2 gates in
  let design_name = Printf.sprintf "%s%d" (profile_name profile) gates in
  match profile with
  | Slike | Fanout_heavy ->
      (* ISCAS'89-like interface/state ratios, depth growing with log size
         (s1238: 14 PI / 14 PO / 18 FF / 529 gates, depth ~20) *)
      {
        design_name;
        n_pi = max 8 (gates / 40);
        n_po = max 8 (gates / 40);
        n_ff = max 4 (gates / 30);
        n_gates = gates;
        levels = max 8 (2 * b);
      }
  | Wide ->
      (* shallow and wide: datapath-like, huge levels, few state bits *)
      {
        design_name;
        n_pi = max 16 (gates / 12);
        n_po = max 16 (gates / 25);
        n_ff = max 4 (gates / 50);
        n_gates = gates;
        levels = max 4 (b / 2);
      }
  | Deep ->
      (* long combinational chains: levels grow near-linearly in log size
         with a floor that keeps at least ~6 gates per level *)
      {
        design_name;
        n_pi = max 8 (gates / 200);
        n_po = max 8 (gates / 200);
        n_ff = max 2 (gates / 400);
        n_gates = gates;
        levels = max 24 (min (gates / 6) (25 * b));
      }

let generate_family ~seed ?(profile = Slike) ~gates () =
  let spec = family_spec ~profile ~gates () in
  let hub_bias = match profile with Fanout_heavy -> Some 30 | _ -> None in
  generate_internal ?hub_bias ~seed spec

let random_combinational ~seed ~n_pi ~n_gates ~n_po =
  generate ~seed
    {
      design_name = Printf.sprintf "comb%d" seed;
      n_pi;
      n_po;
      n_ff = 0;
      n_gates;
      levels = max 1 (min 12 (n_gates / 4));
    }
