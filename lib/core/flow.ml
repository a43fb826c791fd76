module Netlist = Sttc_netlist.Netlist
module Rng = Sttc_util.Rng
module Backend = Sttc_backend.Backend

type algorithm =
  | Independent of { count : int }
  | Dependent
  | Parametric of Algorithms.parametric_options

let algorithm_name = function
  | Independent _ -> "independent"
  | Dependent -> "dependent"
  | Parametric _ -> "parametric"

let default_algorithms =
  [
    Independent { count = 5 };
    Dependent;
    Parametric Algorithms.default_parametric;
  ]

module Json = Sttc_obs.Json

let algorithm_to_json = function
  | Dependent -> Json.String "dependent"
  | Independent { count } ->
      Json.Obj [ ("name", Json.String "independent"); ("count", Json.Int count) ]
  | Parametric opts ->
      Json.Obj
        [
          ("name", Json.String "parametric");
          ("clock_factor", Json.Float opts.clock_factor);
        ]

let json_mem name j = Option.value (Json.member name j) ~default:Json.Null

let algorithm_of_json j =
  let of_name ?(count = 5) ?clock_factor = function
    | "dependent" -> Ok Dependent
    | "independent" when count < 1 ->
        Error (Printf.sprintf "independent count must be at least 1, not %d" count)
    | "independent" -> Ok (Independent { count })
    | "parametric" -> (
        let base = Algorithms.default_parametric in
        match Option.value clock_factor ~default:base.clock_factor with
        | f when Float.is_finite f && f >= 1. ->
            Ok (Parametric { base with clock_factor = f })
        | f ->
            Error
              (Printf.sprintf
                 "parametric clock_factor must be a finite number >= 1, not %g"
                 f))
    | s -> Error ("unknown algorithm " ^ s)
  in
  match j with
  | Json.String s -> of_name s
  | Json.Obj _ -> (
      match Json.to_string_opt (json_mem "name" j) with
      | None -> Error "algorithm object without \"name\""
      | Some name ->
          let count = Json.to_int_opt (json_mem "count" j) in
          let clock_factor = Json.to_float_opt (json_mem "clock_factor" j) in
          of_name ?count ?clock_factor name)
  | _ -> Error "algorithm must be a string or an object"

type result = {
  algorithm : algorithm;
  hybrid : Hybrid.t;
  security : Security.report;
  overhead : Ppa.overhead;
  selection_seconds : float;
  lint : Sttc_lint.Diagnostic.t list;
  parametric_meta : Algorithms.parametric_meta option;
}

type hardening = {
  extra_inputs_per_lut : int;
  absorb_drivers : bool;
}

let no_hardening = { extra_inputs_per_lut = 0; absorb_drivers = false }

let protect ?(seed = 1) ?(library = Sttc_tech.Library.cmos90)
    ?(fraction = 0.02) ?(hardening = no_hardening)
    ?(backend = Backend.stt) ?baseline algorithm netlist =
  Sttc_obs.Span.with_ "flow.protect" ~cat:"core"
    ~attrs:
      [
        ("algorithm", algorithm_name algorithm);
        ("design", Netlist.design_name netlist);
      ]
  @@ fun () ->
  if Netlist.gates netlist = [] then
    invalid_arg "Flow.run: netlist has no CMOS gates";
  (* Hardening grows LUT configs past the replaced gate's own function,
     which a candidate-restricted cell (TVD) cannot realize. *)
  if
    Backend.restricted backend
    && (hardening.extra_inputs_per_lut > 0 || hardening.absorb_drivers)
  then
    invalid_arg
      ("Flow.run: hardening requires a free-function backend, not "
      ^ Backend.name backend);
  (* The default backend prices with the caller's library as given (it
     may deliberately carry the SRAM style for the Section II
     comparison); any other backend forces its own cell technology. *)
  let eval_library =
    if backend == Backend.stt then library
    else Backend.eval_library backend library
  in
  (* A supplied baseline must price this netlist with [eval_library]; its
     STA then also seeds selection, which times with [library] — the same
     analysis when the two libraries agree or no LUT cell tells them
     apart. *)
  let baseline =
    match baseline with
    | Some b
      when Ppa.built_for b eval_library netlist
           && (eval_library = library || Netlist.luts netlist = []) ->
        Some b
    | Some _ | None -> None
  in
  let rng = Rng.make (seed lxor Hashtbl.hash (algorithm_name algorithm)) in
  let (hybrid, meta, base_sta), selection_seconds =
    Sttc_util.Timing.time (fun () ->
        let ctx =
          Select.prepare ~rng ~fraction
            ?sta:(Option.map Ppa.baseline_sta baseline)
            library netlist
        in
        (* the protect passes are whole-design sweeps: the budget is
           polled between them, and inside the selection loops *)
        Sttc_util.Deadline.check ();
        let gates, meta =
          match algorithm with
          | Independent { count } ->
              (Algorithms.independent ~rng ~count ctx, None)
          | Dependent -> (Algorithms.dependent ctx, None)
          | Parametric options ->
              let gates, meta =
                Algorithms.parametric_with_meta ~rng ~options ctx
              in
              (gates, Some meta)
        in
        (* Replacing a gate that reaches no primary output buys zero
           corruptibility (D_i of Eqs. 1-2 is infinite): drop such picks,
           which only arise from dead logic in the input netlist.  The
           [unobservable-lut] lint rule enforces the same invariant. *)
        Sttc_util.Deadline.check ();
        let depth_to_po = Sttc_netlist.Query.sequential_depth_to_po netlist in
        let observable id = depth_to_po.(id) < max_int in
        let gates = List.filter observable gates in
        let meta =
          Option.map
            (fun m ->
              {
                m with
                Algorithms.closure_neighbours =
                  List.filter observable m.Algorithms.closure_neighbours;
              })
            meta
        in
        let gates =
          if gates <> [] then gates
          else
            match List.filter observable (Netlist.gates netlist) with
            | g :: _ -> [ g ]
            | [] -> [ List.hd (Netlist.gates netlist) ]
        in
        let absorb =
          if hardening.absorb_drivers then Expand.pick_absorptions netlist gates
          else []
        in
        let extra_inputs =
          if hardening.extra_inputs_per_lut > 0 then
            Expand.pick_extra_inputs ~rng
              ~per_lut:hardening.extra_inputs_per_lut netlist gates
          else []
        in
        (Hybrid.make ~extra_inputs ~absorb netlist gates, meta, ctx.Select.sta))
  in
  Sttc_obs.Metrics.(
    incr "flow.protects";
    incr ("backend.protect." ^ Backend.name backend);
    observe "flow.selection_seconds" selection_seconds);
  let obs_result r =
    Sttc_obs.Metrics.(
      incr ~by:(Netlist.gate_count netlist) "flow.gates";
      incr ~by:(Hybrid.lut_count r.hybrid) "flow.luts";
      incr ~by:(List.length r.lint) "flow.lint_diagnostics";
      incr ~by:r.security.Security.missing_gates "flow.missing_gates";
      incr ~by:r.security.Security.total_config_bits "flow.config_bits";
      observe "flow.area_overhead_pct" r.overhead.Ppa.area_pct;
      observe "flow.power_overhead_pct" r.overhead.Ppa.power_pct;
      observe "flow.delay_overhead_pct" r.overhead.Ppa.performance_pct;
      peak_gauge "flow.bf_keyspace_log10"
        (Sttc_util.Lognum.log10 r.security.Security.n_bf));
    r
  in
  (* Every protect run is statically checked: a malformed hybrid would
     silently produce wrong security numbers downstream. *)
  Sttc_util.Deadline.check ();
  let lint =
    Sttc_lint.Structural.check ~library (Hybrid.programmed hybrid)
  in
  (match
     List.filter
       (fun d -> d.Sttc_lint.Diagnostic.severity = Sttc_lint.Diagnostic.Error)
       lint
   with
  | [] -> ()
  | d :: _ ->
      invalid_arg
        ("Flow.run: hybrid fails structural lint: "
        ^ Sttc_lint.Diagnostic.to_text d));
  Sttc_util.Deadline.check ();
  let security =
    Security.evaluate
      ~constants:{ Security.alpha = backend.Backend.alpha; p = backend.Backend.p }
      (Hybrid.foundry_view hybrid) ~luts:(Hybrid.lut_ids hybrid)
  in
  let overhead =
    let baseline =
      match baseline with
      | Some b -> b
      | None -> Ppa.baseline ~sta:base_sta eval_library netlist
    in
    Sttc_util.Deadline.check ();
    Ppa.evaluate ~baseline eval_library ~base:netlist
      ~hybrid:(Hybrid.programmed hybrid)
  in
  obs_result
    {
      algorithm;
      hybrid;
      security;
      overhead;
      selection_seconds;
      lint;
      parametric_meta = meta;
    }

(* ---------- entry point ---------- *)

type policy = Strict

type outcome = { accepted : result }

let run ?seed ?library ?fraction ?hardening ?backend ?baseline ~policy:Strict
    algorithm netlist =
  Sttc_obs.Span.with_ "flow.run" ~cat:"core"
    ~attrs:[ ("algorithm", algorithm_name algorithm) ]
  @@ fun () ->
  {
    accepted =
      protect ?seed ?library ?fraction ?hardening ?backend ?baseline algorithm
        netlist;
  }

let lint_view ?(library = Sttc_tech.Library.cmos90) r =
  let algorithm =
    match r.algorithm with
    | Independent _ -> Sttc_lint.Security_rules.Independent
    | Dependent -> Sttc_lint.Security_rules.Dependent
    | Parametric _ -> Sttc_lint.Security_rules.Parametric
  in
  let clock_factor =
    match r.algorithm with
    | Parametric options -> options.Algorithms.clock_factor
    | Independent _ | Dependent -> 1.08
  in
  let meta =
    Option.map
      (fun m ->
        {
          Sttc_lint.Security_rules.usl = m.Algorithms.usl;
          neighbours = m.Algorithms.closure_neighbours;
        })
      r.parametric_meta
  in
  Sttc_lint.Security_rules.view ~algorithm ?meta
    ~original:(Hybrid.original r.hybrid) ~library ~clock_factor
    ~foundry:(Hybrid.foundry_view r.hybrid)
    ~luts:(Hybrid.lut_ids r.hybrid) ()

let lint_security ?library ?only r =
  Sttc_lint.Security_rules.run ?only (lint_view ?library r)

let sign_off ?method_ result =
  match Hybrid.verify ?method_ result.hybrid with
  | Sttc_sim.Equiv.Equivalent -> true
  | Sttc_sim.Equiv.Different _ | Sttc_sim.Equiv.Inconclusive _ -> false

let pp_result fmt r =
  Format.fprintf fmt "%s on %s:@\n  %a@\n  %a@\n  selection took %s"
    (algorithm_name r.algorithm)
    (Netlist.design_name (Hybrid.original r.hybrid))
    Security.pp_report r.security Ppa.pp r.overhead
    (Sttc_util.Timing.format_min_sec r.selection_seconds)
