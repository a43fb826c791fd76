(* Classic hash-consed ROBDD with an ITE computed-cache.  Node ids are
   dense non-negative integers; ids 0 and 1 are the terminals.  A value of
   type [t] carries its manager so that evaluation, counting and support
   queries need no explicit manager argument. *)

type node = {
  var : int;
  low : int;
  high : int;
}

type manager = {
  mutable nodes : node array;
  mutable next : int;
  unique : (int * int * int, int) Hashtbl.t;
  cache : (int * int * int, int) Hashtbl.t;
  mid : int;
}

type t = {
  mgr : manager;
  id : int;
}

let terminal_var = max_int

(* atomic so managers created on different domains (parallel attack or
   equivalence tasks) still get distinct ids for the mixing check *)
let counter = Atomic.make 0

let manager ?(cache_size = 1 lsl 14) () =
  let dummy = { var = terminal_var; low = 0; high = 0 } in
  {
    nodes = Array.make 1024 dummy;
    next = 2;
    unique = Hashtbl.create cache_size;
    cache = Hashtbl.create cache_size;
    mid = 1 + Atomic.fetch_and_add counter 1;
  }

let zero m = { mgr = m; id = 0 }
let one m = { mgr = m; id = 1 }

let is_terminal id = id < 2
let var_of m id = if is_terminal id then terminal_var else m.nodes.(id).var

let check m t =
  if t.mgr.mid <> m.mid then invalid_arg "Bdd: mixing managers";
  t.id

let mk m v low high =
  if low = high then low
  else
    match Hashtbl.find_opt m.unique (v, low, high) with
    | Some id -> id
    | None ->
        let id = m.next in
        m.next <- id + 1;
        if id >= Array.length m.nodes then begin
          let bigger =
            Array.make
              (2 * Array.length m.nodes)
              { var = terminal_var; low = 0; high = 0 }
          in
          Array.blit m.nodes 0 bigger 0 (Array.length m.nodes);
          m.nodes <- bigger
        end;
        m.nodes.(id) <- { var = v; low; high };
        Hashtbl.add m.unique (v, low, high) id;
        id

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative";
  { mgr = m; id = mk m i 0 1 }

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative";
  { mgr = m; id = mk m i 1 0 }

let rec ite_raw m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    match Hashtbl.find_opt m.cache (f, g, h) with
    | Some r -> r
    | None ->
        let v = min (var_of m f) (min (var_of m g) (var_of m h)) in
        let cof x b =
          if is_terminal x then x
          else
            let n = m.nodes.(x) in
            if n.var = v then (if b then n.high else n.low) else x
        in
        let high = ite_raw m (cof f true) (cof g true) (cof h true) in
        let low = ite_raw m (cof f false) (cof g false) (cof h false) in
        let r = mk m v low high in
        Hashtbl.add m.cache (f, g, h) r;
        r

let lnot m f = { mgr = m; id = ite_raw m (check m f) 0 1 }
let land_ m f g = { mgr = m; id = ite_raw m (check m f) (check m g) 0 }
let lor_ m f g = { mgr = m; id = ite_raw m (check m f) 1 (check m g) }

let lxor_ m f g =
  let gid = check m g in
  let ngid = ite_raw m gid 0 1 in
  { mgr = m; id = ite_raw m (check m f) ngid gid }

let land_list m l = List.fold_left (land_ m) (one m) l
let lor_list m l = List.fold_left (lor_ m) (zero m) l
let lxor_list m l = List.fold_left (lxor_ m) (zero m) l

let restrict m f v b =
  let rec go id =
    if is_terminal id then id
    else
      let n = m.nodes.(id) in
      if n.var > v then id
      else if n.var = v then (if b then n.high else n.low)
      else mk m n.var (go n.low) (go n.high)
  in
  { mgr = m; id = go (check m f) }

let equal a b =
  if a.mgr.mid <> b.mgr.mid then invalid_arg "Bdd.equal: mixing managers";
  a.id = b.id

let is_zero m f = check m f = 0
let is_one m f = check m f = 1

let eval t assign =
  let m = t.mgr in
  let rec go id =
    if id = 0 then false
    else if id = 1 then true
    else
      let n = m.nodes.(id) in
      go (if assign n.var then n.high else n.low)
  in
  go t.id

let sat_count t ~nvars =
  let m = t.mgr in
  let memo = Hashtbl.create 64 in
  (* count over variables in [v, nvars) below node [id] *)
  let rec go id v =
    if id = 0 then 0.
    else if id = 1 then 2. ** float_of_int (nvars - v)
    else
      let n = m.nodes.(id) in
      if n.var >= nvars then
        invalid_arg "Bdd.sat_count: support exceeds nvars"
      else
        let key = (id, v) in
        match Hashtbl.find_opt memo key with
        | Some c -> c
        | None ->
            (* Each level skipped between [v] and [n.var] doubles the
               count; at [n.var] the low/high branches partition the
               remaining space. *)
            let skipped = 2. ** float_of_int (n.var - v) in
            let c = skipped *. (go n.low (n.var + 1) +. go n.high (n.var + 1)) in
            Hashtbl.add memo key c;
            c
  in
  go t.id 0

let any_sat t =
  let m = t.mgr in
  if t.id = 0 then None
  else
    let rec go id acc =
      if id = 1 then List.rev acc
      else
        let n = m.nodes.(id) in
        if n.high <> 0 then go n.high ((n.var, true) :: acc)
        else go n.low ((n.var, false) :: acc)
    in
    Some (go t.id [])

let size t =
  let m = t.mgr in
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (is_terminal id) && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let n = m.nodes.(id) in
      go n.low;
      go n.high
    end
  in
  go t.id;
  Hashtbl.length seen

let node_count m = m.next - 2

let support t =
  let m = t.mgr in
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go id =
    if not (is_terminal id) && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let n = m.nodes.(id) in
      Hashtbl.replace vars n.var ();
      go n.low;
      go n.high
    end
  in
  go t.id;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let of_truth m table ~vars =
  let n = Truth.arity table in
  if Array.length vars <> n then invalid_arg "Bdd.of_truth: vars arity";
  let acc = ref (zero m) in
  for r = 0 to (1 lsl n) - 1 do
    if Truth.row table r then begin
      let cube = ref (one m) in
      for k = 0 to n - 1 do
        let lit =
          if (r lsr k) land 1 = 1 then var m vars.(k) else nvar m vars.(k)
        in
        cube := land_ m !cube lit
      done;
      acc := lor_ m !acc !cube
    end
  done;
  !acc

let to_truth t ~vars =
  let sup = support t in
  let listed v = Array.exists (fun x -> x = v) vars in
  List.iter
    (fun v ->
      if not (listed v) then invalid_arg "Bdd.to_truth: support not covered")
    sup;
  let n = Array.length vars in
  Truth.create ~arity:n (fun inputs ->
      let assign v =
        (* find position of [v] in [vars]; vars are distinct by contract *)
        let rec find k =
          if k >= n then false else if vars.(k) = v then inputs.(k) else find (k + 1)
        in
        find 0
      in
      eval t assign)
