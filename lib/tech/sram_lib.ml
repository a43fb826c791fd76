let lut n =
  if n < 1 || n > Sttc_logic.Truth.max_arity then
    invalid_arg "Sram_lib.lut: arity out of range";
  let fn = float_of_int n in
  {
    Cell.cell_name = Printf.sprintf "SRAM_LUT%d" n;
    style = Cell.Stt_lut;
    (* also a pre-charged mux-tree read path: activity independent *)
    arity = n;
    (* static read through a pass-transistor mux: faster than the MTJ
       sense amplifier *)
    delay_ps = 95. +. (22. *. fn);
    switch_energy_fj = 3.1 *. (1.55 ** (fn -. 2.));
    (* 6T cells leak; 2^n bits plus periphery *)
    leakage_nw = 6.5 +. (3.8 *. float_of_int (1 lsl n));
    (* 6T bitcell area dominates *)
    area_um2 = 4.2 +. (1.7 *. float_of_int (1 lsl n));
  }

let bitstream_exposed = true
