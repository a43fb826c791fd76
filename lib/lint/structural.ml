module D = Diagnostic
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth

type rule = {
  id : string;
  alias : string;
  severity : D.severity;
  doc : string;
}

let r_comb_loop =
  {
    id = "STR001";
    alias = "comb-loop";
    severity = D.Error;
    doc =
      "Combinational cycle: a feedback loop that passes through no \
       flip-flop (Tarjan SCC over the gate graph).";
  }

let r_undriven =
  {
    id = "STR002";
    alias = "undriven-net";
    severity = D.Error;
    doc =
      "Undriven or floating net: a fanin that references no driver \
       (undefined signal, unwired flip-flop input).";
  }

let r_multi_driver =
  {
    id = "STR003";
    alias = "multi-driver";
    severity = D.Error;
    doc = "One signal name driven by more than one node.";
  }

let r_dangling =
  {
    id = "STR004";
    alias = "dangling-gate";
    severity = D.Warning;
    doc =
      "Dead logic: a combinational node from which no primary output \
       and no flip-flop can be reached.";
  }

let r_arity =
  {
    id = "STR005";
    alias = "arity-mismatch";
    severity = D.Error;
    doc =
      "Fan-in count disagrees with the node's gate function, or the \
       technology library has no cell for it.";
  }

let r_dup_name =
  {
    id = "STR006";
    alias = "duplicate-name";
    severity = D.Error;
    doc = "Duplicate primary-output name.";
  }

let r_no_output =
  {
    id = "STR007";
    alias = "no-output";
    severity = D.Error;
    doc = "The design declares no primary output.";
  }

let rules =
  [
    r_comb_loop;
    r_undriven;
    r_multi_driver;
    r_dangling;
    r_arity;
    r_dup_name;
    r_no_output;
  ]

let diag rule ?node detail =
  D.make ~rule:rule.id ~alias:rule.alias ~severity:rule.severity ?node detail

(* ---------- STR001: Tarjan SCC over combinational edges ---------- *)

(* Edges: src -> dst for every valid fanin reference of a combinational
   dst.  Flip-flops break loops (their D input is a sequential edge), so
   any SCC of size > 1 — or a combinational self-loop — is a
   combinational cycle. *)
let check_comb_loop (g : Graph.t) =
  let n = Array.length g.Graph.nodes in
  let succs =
    (* src -> combinational readers *)
    let f = Array.make n [] in
    Array.iteri
      (fun dst node ->
        if Graph.is_combinational node.Graph.kind then
          Array.iter
            (fun src -> if Graph.valid_ref g src then f.(src) <- dst :: f.(src))
            node.Graph.fanins)
      g.Graph.nodes;
    f
  in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let sccs = ref [] in
  (* Iterative Tarjan: the work stack holds (node, remaining succs). *)
  let strongconnect root =
    let work = ref [ (root, succs.(root)) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !work <> [] do
      match !work with
      | [] -> ()
      | (v, remaining) :: rest -> (
          match remaining with
          | w :: tail ->
              work := (v, tail) :: rest;
              if index.(w) < 0 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                work := (w, succs.(w)) :: !work
              end
              else if on_stack.(w) then
                lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
              work := rest;
              (match rest with
              | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
              | [] -> ());
              if lowlink.(v) = index.(v) then begin
                (* pop the SCC rooted at v *)
                let scc = ref [] in
                let continue = ref true in
                while !continue do
                  match !stack with
                  | [] -> continue := false
                  | w :: tl ->
                      stack := tl;
                      on_stack.(w) <- false;
                      scc := w :: !scc;
                      if w = v then continue := false
                done;
                sccs := !scc :: !sccs
              end)
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  let self_loop v = List.mem v succs.(v) in
  List.filter_map
    (fun scc ->
      match scc with
      | [] -> None
      | [ v ] when not (self_loop v) -> None
      | members ->
          let names =
            List.map (fun v -> g.Graph.nodes.(v).Graph.name) members
            |> List.sort String.compare
          in
          let anchor = List.hd names in
          Some
            (diag r_comb_loop ~node:anchor
               (Printf.sprintf
                  "combinational cycle through %d node(s): %s" (List.length members)
                  (String.concat " -> " names))))
    !sccs

(* ---------- STR002: undriven / floating references ---------- *)

let check_undriven (g : Graph.t) =
  let bad = ref [] in
  Array.iter
    (fun node ->
      let missing =
        Array.to_list node.Graph.fanins
        |> List.filter (fun src -> not (Graph.valid_ref g src))
      in
      if missing <> [] then
        bad :=
          diag r_undriven ~node:node.Graph.name
            (Printf.sprintf "%d fanin(s) have no driver" (List.length missing))
          :: !bad)
    g.Graph.nodes;
  Array.iter
    (fun (name, drv) ->
      if not (Graph.valid_ref g drv) then
        bad :=
          diag r_undriven ~node:name
            "primary output references no driver"
          :: !bad)
    g.Graph.outputs;
  List.rev !bad

(* ---------- STR003: multiple drivers of one name ---------- *)

let check_multi_driver (g : Graph.t) =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun node ->
      let name = node.Graph.name in
      Hashtbl.replace seen name (1 + Option.value (Hashtbl.find_opt seen name) ~default:0))
    g.Graph.nodes;
  Hashtbl.fold
    (fun name count acc ->
      if count > 1 then
        diag r_multi_driver ~node:name
          (Printf.sprintf "signal is driven by %d nodes" count)
        :: acc
      else acc)
    seen []
  |> List.sort D.compare

(* ---------- STR004: dangling combinational nodes ---------- *)

let check_dangling (g : Graph.t) =
  let n = Array.length g.Graph.nodes in
  let useful = Array.make n false in
  let rec mark v =
    if Graph.valid_ref g v && not (useful.(v)) then begin
      useful.(v) <- true;
      Array.iter mark g.Graph.nodes.(v).Graph.fanins
    end
  in
  Array.iter (fun (_, drv) -> mark drv) g.Graph.outputs;
  Array.iteri
    (fun _ node ->
      match node.Graph.kind with
      | Graph.Dff -> Array.iter mark node.Graph.fanins
      | _ -> ())
    g.Graph.nodes;
  let out = ref [] in
  Array.iteri
    (fun id node ->
      if Graph.is_combinational node.Graph.kind && not useful.(id) then
        out :=
          diag r_dangling ~node:node.Graph.name
            "drives no primary output and no flip-flop (dead logic)"
          :: !out)
    g.Graph.nodes;
  List.rev !out

(* ---------- STR005: arity / technology-cell mismatches ---------- *)

let check_arity ~library (g : Graph.t) =
  let out = ref [] in
  let bad node detail = out := diag r_arity ~node detail :: !out in
  Array.iter
    (fun node ->
      let fi = Array.length node.Graph.fanins in
      let name = node.Graph.name in
      match node.Graph.kind with
      | Graph.Pi | Graph.Const _ ->
          if fi <> 0 then
            bad name (Printf.sprintf "source node carries %d fanin(s)" fi)
      | Graph.Dff ->
          if fi <> 1 then
            bad name (Printf.sprintf "flip-flop has %d fanins (wants 1)" fi)
      | Graph.Gate fn -> (
          match Gate_fn.validate fn with
          | () ->
              if fi <> Gate_fn.arity fn then
                bad name
                  (Printf.sprintf "%s has %d fanins (cell wants %d)"
                     (Gate_fn.to_string fn) fi (Gate_fn.arity fn))
              else begin
                match Sttc_tech.Library.gate_cell library fn with
                | (_ : Sttc_tech.Cell.t) -> ()
                | exception Invalid_argument m ->
                    bad name ("no technology cell: " ^ m)
              end
          | exception Invalid_argument m -> bad name ("invalid gate: " ^ m))
      | Graph.Lut { arity; _ } ->
          if arity < 1 || arity > Truth.max_arity then
            bad name
              (Printf.sprintf "LUT arity %d outside [1, %d]" arity
                 Truth.max_arity)
          else if fi <> arity then
            bad name
              (Printf.sprintf "LUT has %d fanins (arity says %d)" fi arity)
          else begin
            match Sttc_tech.Library.lut_cell library arity with
            | (_ : Sttc_tech.Cell.t) -> ()
            | exception Invalid_argument m ->
                bad name ("no technology cell: " ^ m)
          end)
    g.Graph.nodes;
  List.rev !out

(* ---------- STR006 / STR007: output declarations ---------- *)

let check_dup_name (g : Graph.t) =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (name, _) ->
      Hashtbl.replace seen name
        (1 + Option.value (Hashtbl.find_opt seen name) ~default:0))
    g.Graph.outputs;
  Hashtbl.fold
    (fun name count acc ->
      if count > 1 then
        diag r_dup_name ~node:name
          (Printf.sprintf "primary output declared %d times" count)
        :: acc
      else acc)
    seen []
  |> List.sort D.compare

let check_no_output (g : Graph.t) =
  if Array.length g.Graph.outputs = 0 then
    [ diag r_no_output "design has no primary outputs" ]
  else []

(* ---------- driver ---------- *)

let enabled only rule =
  only = []
  || List.exists
       (fun r ->
         let r = String.lowercase_ascii r in
         String.lowercase_ascii rule.id = r
         || String.lowercase_ascii rule.alias = r)
       only

let run ?(only = []) ?(library = Sttc_tech.Library.cmos90) g =
  let packs =
    [
      (r_comb_loop, fun () -> check_comb_loop g);
      (r_undriven, fun () -> check_undriven g);
      (r_multi_driver, fun () -> check_multi_driver g);
      (r_dangling, fun () -> check_dangling g);
      (r_arity, fun () -> check_arity ~library g);
      (r_dup_name, fun () -> check_dup_name g);
      (r_no_output, fun () -> check_no_output g);
    ]
  in
  List.concat_map
    (fun (rule, check) ->
      if enabled only rule then begin
        Sttc_util.Deadline.check ();
        check ()
      end
      else [])
    packs

let check ?only ?library nl = run ?only ?library (Graph.of_netlist nl)
