module Gate_fn = Sttc_logic.Gate_fn

(* Technology anchors, 90 nm flavour. *)
let tau_ps = 32.
let energy_unit_fj = 1.1 (* per transistor pair switched *)
let leak_unit_nw = 2.4 (* per transistor pair *)
let area_unit_um2 = 0.55 (* per transistor *)

let transistor_count fn =
  match fn with
  | Gate_fn.Buf -> 4
  | Gate_fn.Not -> 2
  | Gate_fn.And n | Gate_fn.Or n -> (2 * n) + 2 (* NAND/NOR + inverter *)
  | Gate_fn.Nand n | Gate_fn.Nor n -> 2 * n
  | Gate_fn.Xor n | Gate_fn.Xnor n -> 6 * (n - 1) + 2

(* Logical-effort-style stage delay: series NMOS stacks slow NAND mildly,
   series PMOS stacks slow NOR substantially (PMOS mobility deficit ~2x). *)
let delay_ps fn =
  match fn with
  | Gate_fn.Buf -> 1.6 *. tau_ps
  | Gate_fn.Not -> 1.0 *. tau_ps
  | Gate_fn.Nand n -> tau_ps *. (1.0 +. (0.33 *. float_of_int (n - 1)))
  | Gate_fn.Nor n -> tau_ps *. (1.0 +. (0.62 *. float_of_int (n - 1)))
  | Gate_fn.And n -> tau_ps *. (2.0 +. (0.33 *. float_of_int (n - 1)))
  | Gate_fn.Or n -> tau_ps *. (2.0 +. (0.62 *. float_of_int (n - 1)))
  | Gate_fn.Xor n | Gate_fn.Xnor n ->
      tau_ps *. (2.2 +. (0.85 *. float_of_int (n - 1)))

let switch_energy_fj fn =
  energy_unit_fj *. float_of_int (transistor_count fn) /. 2.

(* Transistor stacking suppresses leakage in series stacks: high fan-in
   NAND/NOR leak less per transistor. *)
let leakage_nw fn =
  let pairs = float_of_int (transistor_count fn) /. 2. in
  let stack_factor =
    match fn with
    | Gate_fn.Nand n | Gate_fn.Nor n | Gate_fn.And n | Gate_fn.Or n ->
        1.0 /. (1.0 +. (0.45 *. float_of_int (n - 1)))
    | Gate_fn.Buf | Gate_fn.Not | Gate_fn.Xor _ | Gate_fn.Xnor _ -> 1.0
  in
  leak_unit_nw *. pairs *. stack_factor

let area_um2 fn = area_unit_um2 *. float_of_int (transistor_count fn)

let gate fn =
  Gate_fn.validate fn;
  {
    Cell.cell_name = Gate_fn.to_string fn;
    style = Cell.Cmos;
    arity = Gate_fn.arity fn;
    delay_ps = delay_ps fn;
    switch_energy_fj = switch_energy_fj fn;
    leakage_nw = leakage_nw fn;
    area_um2 = area_um2 fn;
  }

let inverter = gate Gate_fn.Not

let dff =
  {
    Cell.cell_name = "DFF";
    style = Cell.Sequential;
    arity = 1;
    delay_ps = 2.4 *. tau_ps; (* clk-to-q plus setup allocated to the cell *)
    switch_energy_fj = 6.0;
    leakage_nw = 9.0;
    area_um2 = 11.0;
  }
