type lit = int
type clause = lit array

type t = {
  mutable nvars : int;
  clauses : clause Sttc_util.Growable.t;
}

let create () = { nvars = 0; clauses = Sttc_util.Growable.create () }

let fresh_var t =
  t.nvars <- t.nvars + 1;
  t.nvars

let reserve t n = if n > t.nvars then t.nvars <- n
let nvars t = t.nvars
let nclauses t = Sttc_util.Growable.length t.clauses

let check_lit t l =
  let v = abs l in
  if v = 0 || v > t.nvars then invalid_arg "Cnf: literal out of range"

let add_clause_a t c =
  Array.iter (check_lit t) c;
  ignore (Sttc_util.Growable.push t.clauses c)

let add_clause t lits = add_clause_a t (Array.of_list lits)

let clauses t = Sttc_util.Growable.to_list t.clauses
let clause t i = Sttc_util.Growable.get t.clauses i
let iter_clauses f t = Sttc_util.Growable.iter f t.clauses

let encode_buf t out a =
  add_clause t [ -out; a ];
  add_clause t [ out; -a ]

let encode_not t out a =
  add_clause t [ -out; -a ];
  add_clause t [ out; a ]

let encode_and t out inputs =
  (* out -> each input; all inputs -> out *)
  List.iter (fun a -> add_clause t [ -out; a ]) inputs;
  add_clause t (out :: List.map (fun a -> -a) inputs)

let encode_or t out inputs =
  List.iter (fun a -> add_clause t [ out; -a ]) inputs;
  add_clause t (-out :: inputs)

let encode_xor t out a b =
  add_clause t [ -out; a; b ];
  add_clause t [ -out; -a; -b ];
  add_clause t [ out; -a; b ];
  add_clause t [ out; a; -b ]

let encode_xor_list t out inputs =
  match inputs with
  | [] -> invalid_arg "Cnf.encode_xor_list: empty"
  | [ a ] -> encode_buf t out a
  | a :: rest ->
      let acc =
        List.fold_left
          (fun acc b ->
            let v = fresh_var t in
            encode_xor t v acc b;
            v)
          a rest
      in
      encode_buf t out acc

let encode_gate t out fn inputs =
  if List.length inputs <> Gate_fn.arity fn then
    invalid_arg "Cnf.encode_gate: arity";
  match fn with
  | Gate_fn.Buf -> encode_buf t out (List.hd inputs)
  | Gate_fn.Not -> encode_not t out (List.hd inputs)
  | Gate_fn.And _ -> encode_and t out inputs
  | Gate_fn.Nand _ ->
      let v = fresh_var t in
      encode_and t v inputs;
      encode_not t out v
  | Gate_fn.Or _ -> encode_or t out inputs
  | Gate_fn.Nor _ ->
      let v = fresh_var t in
      encode_or t v inputs;
      encode_not t out v
  | Gate_fn.Xor _ -> encode_xor_list t out inputs
  | Gate_fn.Xnor _ ->
      let v = fresh_var t in
      encode_xor_list t v inputs;
      encode_not t out v

let encode_truth_lut t out ~key ~inputs =
  let n = Array.length inputs in
  let rows = Array.length key in
  if rows <> 1 lsl n then invalid_arg "Cnf.encode_truth_lut: key size";
  (* For each row r: (inputs match r) -> out = key.(r).  The row match is a
     conjunction of input literals directly usable as clause antecedents. *)
  for r = 0 to rows - 1 do
    let antecedent =
      List.init n (fun k ->
          let l = inputs.(k) in
          if (r lsr k) land 1 = 1 then -l else l)
    in
    add_clause t ((out :: -key.(r) :: antecedent));
    add_clause t ((-out :: key.(r) :: antecedent))
  done
