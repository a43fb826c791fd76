module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Gate_fn = Sttc_logic.Gate_fn

type t = {
  netlist : Netlist.t;
  prob : float array;
}

(* Exact output probability of a truth table given independent input
   one-probabilities, read and stored in place: input [k] has probability
   [prob.(fanins.(k))] and the result goes to [prob.(id)], so a sweep
   allocates nothing per gate. *)
let propagate prob id table fanins =
  let n = Truth.arity table in
  assert (Array.length fanins = n);
  let total = ref 0. in
  for r = 0 to (1 lsl n) - 1 do
    if Truth.row table r then begin
      let p = ref 1. in
      for k = 0 to n - 1 do
        let pk = prob.(fanins.(k)) in
        p := !p *. (if (r lsr k) land 1 = 1 then pk else 1. -. pk)
      done;
      total := !total +. !p
    end
  done;
  (* rounding across many rows can drift a hair outside [0,1] *)
  prob.(id) <- Float.min 1. (Float.max 0. !total)

let analyze ?(pi_probability = 0.5) nl =
  if pi_probability < 0. || pi_probability > 1. then
    invalid_arg "Activity.analyze: pi_probability";
  let n = Netlist.node_count nl in
  let prob = Array.make n 0.5 in
  let order = Netlist.topo_order nl in
  Netlist.iter
    (fun id node ->
      match node.Netlist.kind with
      | Netlist.Pi -> prob.(id) <- pi_probability
      | Netlist.Const v -> prob.(id) <- (if v then 1. else 0.)
      | _ -> ())
    nl;
  let propagate_comb () =
    Array.iter
      (fun id ->
        let node = Netlist.node nl id in
        match node.Netlist.kind with
        | Netlist.Gate fn ->
            propagate prob id (Gate_fn.truth fn) node.Netlist.fanins
        | Netlist.Lut { config = Some c; _ } ->
            propagate prob id c node.Netlist.fanins
        | Netlist.Lut { config = None; _ } -> prob.(id) <- 0.5
        | Netlist.Pi | Netlist.Const _ | Netlist.Dff -> ())
      order
  in
  let dffs = Netlist.dffs nl in
  let rec iterate k =
    Sttc_util.Deadline.check ();
    propagate_comb ();
    let delta = ref 0. in
    List.iter
      (fun ff ->
        let d = (Netlist.fanins nl ff).(0) in
        let next = prob.(d) in
        delta := Float.max !delta (Float.abs (next -. prob.(ff)));
        prob.(ff) <- next)
      dffs;
    if !delta > 1e-4 && k < 40 then iterate (k + 1)
  in
  if dffs = [] then propagate_comb () else iterate 1;
  { netlist = nl; prob }

(* True when two kinds denote the same probability transfer function, so
   swapping one for the other cannot change any computed probability.
   Gate→configured-LUT replacements that keep the function (the protect
   flow's default) land in the [Truth.equal] cases. *)
let same_transfer ka kb =
  ka == kb
  ||
  match (ka, kb) with
  | Netlist.Gate fa, Netlist.Gate fb -> fa = fb
  | Netlist.Lut { config = Some a; _ }, Netlist.Lut { config = Some b; _ } ->
      Truth.equal a b
  | Netlist.Lut { config = None; _ }, Netlist.Lut { config = None; _ } -> true
  | Netlist.Gate f, Netlist.Lut { config = Some c; _ }
  | Netlist.Lut { config = Some c; _ }, Netlist.Gate f ->
      Truth.equal (Gate_fn.truth f) c
  | Netlist.Pi, Netlist.Pi | Netlist.Dff, Netlist.Dff -> true
  | Netlist.Const a, Netlist.Const b -> a = b
  | _ -> false

let refine t nl ~changed =
  let module Metrics = Sttc_obs.Metrics in
  let full () =
    Metrics.incr "activity.refine.full";
    analyze nl
  in
  match Netlist.kind_delta t.netlist nl with
  | None -> full ()
  | Some delta ->
      let n = Array.length t.prob in
      let dirty = Array.make n false in
      let seeds = ref [] in
      List.iter
        (fun id ->
          if id < 0 || id >= n then
            invalid_arg "Activity.refine: node id out of range";
          if
            (not dirty.(id))
            && not (same_transfer (Netlist.kind t.netlist id) (Netlist.kind nl id))
          then begin
            dirty.(id) <- true;
            seeds := id :: !seeds
          end)
        (List.rev_append delta changed);
      if !seeds = [] then begin
        (* every transfer function is unchanged: the from-scratch fixpoint
           on [nl] retraces the base trajectory bit for bit *)
        Metrics.incr "activity.refine.cone";
        Metrics.observe "activity.refine.cone_nodes" 0.;
        { netlist = nl; prob = Array.copy t.prob }
      end
      else begin
        (* Forward cone of the dirty nodes (iterative; fanout caches of
           the base remain valid for [nl] per [kind_delta]).  The cone
           refine is exact only when the cone is sealed off from the
           sequential fixpoint: no cone node reads a flip-flop (the base's
           stored comb values were computed against pre-final-update DFF
           probabilities) and none feeds a flip-flop D input (which would
           alter the fixpoint trajectory itself). *)
        let in_cone = Array.make n false in
        let stack = Sttc_util.Growable.create () in
        let sealed = ref true in
        List.iter
          (fun id ->
            in_cone.(id) <- true;
            ignore (Sttc_util.Growable.push stack id))
          !seeds;
        let cone = ref 0 in
        while !sealed && not (Sttc_util.Growable.is_empty stack) do
          let id = Sttc_util.Growable.pop stack in
          incr cone;
          Array.iter
            (fun src ->
              match Netlist.kind nl src with
              | Netlist.Dff -> sealed := false
              | _ -> ())
            (Netlist.fanins nl id);
          List.iter
            (fun out ->
              match Netlist.kind nl out with
              | Netlist.Dff -> sealed := false
              | _ ->
                  if not in_cone.(out) then begin
                    in_cone.(out) <- true;
                    ignore (Sttc_util.Growable.push stack out)
                  end)
            (Netlist.fanouts nl id)
        done;
        if not !sealed then full ()
        else begin
          let prob = Array.copy t.prob in
          Array.iter
            (fun id ->
              if in_cone.(id) then
                let node = Netlist.node nl id in
                match node.Netlist.kind with
                | Netlist.Gate fn ->
                    propagate prob id (Gate_fn.truth fn) node.Netlist.fanins
                | Netlist.Lut { config = Some c; _ } ->
                    propagate prob id c node.Netlist.fanins
                | Netlist.Lut { config = None; _ } -> prob.(id) <- 0.5
                | Netlist.Pi | Netlist.Const _ | Netlist.Dff -> ())
            (Netlist.topo_order nl);
          Metrics.incr "activity.refine.cone";
          Metrics.observe "activity.refine.cone_nodes" (float_of_int !cone);
          { netlist = nl; prob }
        end
      end

let probability t id =
  if id < 0 || id >= Array.length t.prob then invalid_arg "Activity.probability";
  t.prob.(id)

(* Standard temporal-independence toggle estimate. *)
let switching t id =
  let p = probability t id in
  2. *. p *. (1. -. p)

let average_switching t =
  let ids =
    Netlist.fold
      (fun id n acc -> if Netlist.is_combinational n.Netlist.kind then id :: acc else acc)
      t.netlist []
  in
  match ids with
  | [] -> 0.
  | _ ->
      List.fold_left (fun acc id -> acc +. switching t id) 0. ids
      /. float_of_int (List.length ids)
