type style =
  | Cmos
  | Stt_lut
  | Tvd
  | Sequential

type t = {
  cell_name : string;
  style : style;
  arity : int;
  delay_ps : float;
  switch_energy_fj : float;
  leakage_nw : float;
  area_um2 : float;
}

let activity_independent c =
  match c.style with Stt_lut -> true | Cmos | Tvd | Sequential -> false

let dynamic_power_uw c ~activity ~clock_ghz =
  if activity < 0. || activity > 1. then
    invalid_arg "Cell.dynamic_power_uw: activity out of [0,1]";
  if clock_ghz <= 0. then invalid_arg "Cell.dynamic_power_uw: clock";
  (* fJ * GHz = microwatt *)
  let effective = if activity_independent c then 1. else activity in
  effective *. c.switch_energy_fj *. clock_ghz

let by_fan_in ~what cell =
  let max = Sttc_logic.Truth.max_arity in
  let cells = Array.init max (fun i -> cell (i + 1)) in
  fun n ->
    if n < 1 || n > max then invalid_arg (what ^ ": arity out of range");
    cells.(n - 1)
