module Netlist = Sttc_netlist.Netlist
module Cnf = Sttc_logic.Cnf
module Sat = Sttc_logic.Sat
module Hybrid = Sttc_core.Hybrid
module Encode = Sttc_sim.Encode
module Deadline = Sttc_util.Deadline

type solver_mode = Incremental | Scratch

type outcome =
  | Broken of {
      bitstream : (Netlist.node_id * Sttc_logic.Truth.t) list;
      queries : int;
      iterations : int;
      seconds : float;
      stats : Sat.stats;
    }
  | Exhausted of {
      iterations : int;
      seconds : float;
      reason : string;
      stats : Sat.stats;
    }

let add_stats (a : Sat.stats) (b : Sat.stats) : Sat.stats =
  {
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    conflicts = a.conflicts + b.conflicts;
    learned = a.learned + b.learned;
    kept = b.kept;
    removed = a.removed + b.removed;
    restarts = a.restarts + b.restarts;
  }

(* The whole attack talks to the solver through one closure.
   Incremental: a single live solver accumulates every clause of [cnf]
   (via the sync cursor) together with everything it learns, and each
   call just pulls in the new clauses.  Scratch: every call rebuilds a
   throwaway solver from the full formula — the pre-incremental cost
   profile, kept as the benchmark baseline.  Either way the answers are
   exact, so both modes agree on every SAT/UNSAT question. *)
let make_solver ?reuse mode cnf =
  let stats = ref Sat.zero_stats in
  let live =
    match mode with
    | Incremental -> (
        (* a recycled arena behaves exactly like a fresh solver
           (Sat.Solver.reset contract), so reuse cannot change the
           recovered key *)
        match reuse with
        | Some s ->
            Sat.Solver.reset s;
            Some s
        | None -> Some (Sat.Solver.create ()))
    | Scratch -> None
  in
  let solve ?assumptions ?max_conflicts () =
    let s =
      match live with
      | Some s ->
          Sat.Solver.sync s cnf;
          s
      | None -> Sat.Solver.of_cnf cnf
    in
    (* an expired call still records its statistics *)
    Fun.protect
      ~finally:(fun () -> stats := add_stats !stats (Sat.last_stats ()))
      (fun () -> Sat.Solver.solve ?assumptions ?max_conflicts s)
  in
  (solve, fun () -> !stats)

(* Canonical key extraction: the lexicographically minimal key (in key
   declaration order, preferring 0 bits) consistent with the accumulated
   constraints, found by fixing one bit at a time under assumptions.
   After the DIP loop terminates, the consistent keys are exactly the
   functionally correct ones, a set independent of solver history — so
   Incremental and Scratch recover byte-identical bitstreams.  The
   cached model always satisfies every fixed assumption (a bit is only
   fixed to 1 when the model already agrees, or to 0 after a witnessing
   solve), which skips the solve for every bit the current model already
   has at 0 and makes the final model the canonical one. *)
let canonical_key
    (solve :
      ?assumptions:Cnf.lit list -> ?max_conflicts:int -> unit -> Sat.result)
    keys ~act =
  (* these solves carry no conflict budget, so [Unknown] cannot occur;
     an expired deadline raises through them instead of leaving a
     non-canonical key *)
  let cannot_happen r = invalid_arg ("Sat_attack.canonical_key: " ^ r) in
  match solve ~assumptions:[ -act ] () with
  | Sat.Unsat -> None
  | Sat.Unknown r -> cannot_happen r
  | Sat.Sat m0 ->
      let model = ref m0 in
      let fixed = ref [ -act ] in
      List.iter
        (fun (_, key) ->
          Array.iter
            (fun l ->
              if not (Sat.model_value !model l) then fixed := -l :: !fixed
              else
                match solve ~assumptions:(-l :: !fixed) () with
                | Sat.Sat m ->
                    model := m;
                    fixed := -l :: !fixed
                | Sat.Unsat -> fixed := l :: !fixed
                | Sat.Unknown r -> cannot_happen r)
            key)
        keys;
      Some !model

(* One-hot candidate restriction: the keyed LUT must implement one of the
   listed truth tables. *)
let restrict_keys cnf keys candidates =
  List.iter
    (fun (id, key) ->
      match List.assoc_opt id candidates with
      | None -> ()
      | Some tables ->
          if tables = [] then invalid_arg "Sat_attack: empty candidate list";
          let selectors =
            List.map
              (fun table ->
                let s = Cnf.fresh_var cnf in
                Array.iteri
                  (fun r l ->
                    (* s -> key.(r) = table row r *)
                    Cnf.add_clause cnf
                      [ -s; (if Sttc_logic.Truth.row table r then l else -l) ])
                  key;
                s)
              tables
          in
          Cnf.add_clause cnf selectors)
    keys

(* A double-key miter ready for the DIP loop: its solver, activation
   literal and copy-1 key literals, plus [observe] (query the oracle on a
   distinguishing model and pin the answer into the formula) and
   [conclude] (turn the canonical consistent model into a verified
   bitstream, or a reason to give up). *)
type miter = {
  solve : ?assumptions:Cnf.lit list -> ?max_conflicts:int -> unit -> Sat.result;
  stats : unit -> Sat.stats;
  act : Cnf.lit;
  keys : (Netlist.node_id * Cnf.lit array) list;
  observe : bool array -> unit;
  conclude :
    bool array -> ((Netlist.node_id * Sttc_logic.Truth.t) list, string) result;
}

(* The DIP loop both attacks share, under the attack's wall-clock
   budget.  [setup ()] builds the miter inside the budget, like the
   loop.  Each solver call gets at most 200k conflicts. *)
let dip_loop ~max_iterations ~timeout_s oracle setup =
  let t0 = Deadline.now_s () in
  let iterations = ref 0 in
  let stats = ref (fun () -> Sat.zero_stats) in
  let exhausted reason =
    Exhausted
      {
        iterations = !iterations;
        seconds = Deadline.now_s () -. t0;
        reason;
        stats = !stats ();
      }
  in
  let attack () =
    let m = setup () in
    stats := m.stats;
    let rec loop () =
      if !iterations >= max_iterations then exhausted "iteration limit"
      else
        match
          Sttc_obs.Span.with_ "sat.dip_iteration" ~cat:"attack"
            ~attrs:[ ("iteration", string_of_int (!iterations + 1)) ]
            (fun () ->
              m.solve ~assumptions:[ m.act ] ~max_conflicts:200_000 ())
        with
        | Sat.Unknown _ -> exhausted "conflict budget"
        | Sat.Unsat -> (
            (* No distinguishing input remains: every key consistent with
               the recorded I/O pairs is functionally equivalent on them;
               extract the canonical one under the deactivated miter. *)
            match canonical_key m.solve m.keys ~act:m.act with
            | None -> exhausted "no consistent key (internal error)"
            | Some model -> (
                match m.conclude model with
                | Error reason -> exhausted reason
                | Ok bitstream ->
                    Broken
                      {
                        bitstream;
                        queries = Oracle.queries oracle;
                        iterations = !iterations;
                        seconds = Deadline.now_s () -. t0;
                        stats = !stats ();
                      }))
        | Sat.Sat model ->
            m.observe model;
            incr iterations;
            loop ()
    in
    loop ()
  in
  match Deadline.within timeout_s attack with
  | Ok outcome -> outcome
  | Error `Expired -> exhausted "timeout"

let run ?(max_iterations = 2000) ?(timeout_s = 60.) ?(candidates = [])
    ?(mode = Incremental) ?solver hybrid =
  let foundry = Hybrid.foundry_view hybrid in
  let oracle = Oracle.create hybrid in
  dip_loop ~max_iterations ~timeout_s oracle
  @@ fun () ->
  (* Copy 1 and copy 2 share inputs, have independent keys. *)
  let c1 = Encode.encode foundry in
  let c2 =
    Encode.encode ~cnf:c1.Encode.cnf ~share_inputs:c1.Encode.inputs foundry
  in
  let cnf = c1.Encode.cnf in
  restrict_keys cnf c1.Encode.keys candidates;
  restrict_keys cnf c2.Encode.keys candidates;
  (* Miter: some output differs — but only under the activation literal,
     so the DIP search (assumption [act]) and the final key extraction
     (assumption [-act]) run on the same solver and the same clauses. *)
  let diffs =
    List.map2
      (fun (_, l1) (_, l2) ->
        let d = Cnf.fresh_var cnf in
        Cnf.encode_xor cnf d l1 l2;
        d)
      c1.Encode.outputs c2.Encode.outputs
  in
  let act = Cnf.fresh_var cnf in
  Cnf.add_clause cnf (-act :: diffs);
  let solve, stats = make_solver ?reuse:solver mode cnf in
  (* Constrain both key copies with an observed I/O pair.  The miter's
     inputs must stay free, so each observation gets fresh circuit copies
     sharing only the key variables; the incremental solver just absorbs
     the new clauses, keeping everything it has learned. *)
  let observe model =
    let input_bits =
      Array.of_list
        (List.map (fun (_, l) -> Sat.model_value model l) c1.Encode.inputs)
    in
    let output_bits = Oracle.query oracle input_bits in
    let fresh1 = Encode.encode ~cnf ~share_keys:c1.Encode.keys foundry in
    let fresh2 =
      Encode.encode ~cnf ~share_inputs:fresh1.Encode.inputs
        ~share_keys:c2.Encode.keys foundry
    in
    let pin bits lits =
      List.iteri
        (fun i (_, l) -> Cnf.add_clause cnf [ (if bits.(i) then l else -l) ])
        lits
    in
    pin input_bits fresh1.Encode.inputs;
    pin output_bits fresh1.Encode.outputs;
    pin output_bits fresh2.Encode.outputs
  in
  let conclude model = Ok (Encode.key_of_model c1 model) in
  { solve; stats; act; keys = c1.Encode.keys; observe; conclude }

let verify_break hybrid bitstream =
  let candidate = Hybrid.program_with hybrid bitstream in
  match Sttc_sim.Equiv.check_sat (Hybrid.programmed hybrid) candidate with
  | Sttc_sim.Equiv.Equivalent -> true
  | _ -> false

let run_sequential ?(frames = 5) ?(max_iterations = 500) ?(timeout_s = 60.)
    ?(candidates = []) ?(mode = Incremental) ?solver hybrid =
  let foundry = Hybrid.foundry_view hybrid in
  let oracle = Oracle.create hybrid in
  dip_loop ~max_iterations ~timeout_s oracle
  @@ fun () ->
  let c1 = Encode.encode_unrolled ~frames foundry in
  let cnf = c1.Encode.u_cnf in
  let c2 =
    Encode.encode_unrolled ~cnf ~share_frame_pis:c1.Encode.frame_pis ~frames
      foundry
  in
  restrict_keys cnf c1.Encode.u_keys candidates;
  restrict_keys cnf c2.Encode.u_keys candidates;
  (* miter: some primary output differs in some frame, under [act] *)
  let diffs = ref [] in
  Array.iteri
    (fun frame pos1 ->
      List.iter2
        (fun (_, l1) (_, l2) ->
          let d = Cnf.fresh_var cnf in
          Cnf.encode_xor cnf d l1 l2;
          diffs := d :: !diffs)
        pos1
        c2.Encode.frame_pos.(frame))
    c1.Encode.frame_pos;
  let act = Cnf.fresh_var cnf in
  Cnf.add_clause cnf (-act :: !diffs);
  let solve, stats = make_solver ?reuse:solver mode cnf in
  (* the distinguishing sequence from the model, observed and pinned into
     fresh unrolled copies of both keys *)
  let pi_count = List.length c1.Encode.frame_pis.(0) in
  let observe model =
    let pi_seq =
      List.init frames (fun frame ->
          let bits = Array.make pi_count false in
          List.iteri
            (fun i (_, l) -> bits.(i) <- Sat.model_value model l)
            c1.Encode.frame_pis.(frame);
          bits)
    in
    let po_seq = Oracle.query_sequence oracle pi_seq in
    let fresh1 =
      Encode.encode_unrolled ~cnf ~share_keys:c1.Encode.u_keys ~frames foundry
    in
    let fresh2 =
      Encode.encode_unrolled ~cnf ~share_keys:c2.Encode.u_keys
        ~share_frame_pis:fresh1.Encode.frame_pis ~frames foundry
    in
    List.iteri
      (fun frame pis ->
        List.iteri
          (fun i (_, l) -> Cnf.add_clause cnf [ (if pis.(i) then l else -l) ])
          fresh1.Encode.frame_pis.(frame);
        let pos = List.nth po_seq frame in
        List.iteri
          (fun i (_, l) -> Cnf.add_clause cnf [ (if pos.(i) then l else -l) ])
          fresh1.Encode.frame_pos.(frame);
        List.iteri
          (fun i (_, l) -> Cnf.add_clause cnf [ (if pos.(i) then l else -l) ])
          fresh2.Encode.frame_pos.(frame))
      pi_seq
  in
  (* keys that agree on every length-[frames] sequence may still differ
     on longer ones: verify before claiming a break *)
  let conclude model =
    let fake_keyed =
      {
        Encode.cnf;
        inputs = [];
        outputs = [];
        keys = c1.Encode.u_keys;
        node_lits = [||];
      }
    in
    let bitstream = Encode.key_of_model fake_keyed model in
    if verify_break hybrid bitstream then Ok bitstream
    else Error "sequence-length limit"
  in
  { solve; stats; act; keys = c1.Encode.u_keys; observe; conclude }
