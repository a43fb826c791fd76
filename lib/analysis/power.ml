module Netlist = Sttc_netlist.Netlist
module Library = Sttc_tech.Library
module Cell = Sttc_tech.Cell

type report = {
  dynamic_uw : float;
  leakage_uw : float;
  total_uw : float;
  cmos_uw : float;
  stt_uw : float;
  avg_switching : float;
}

let estimate ?activity lib nl =
  let act =
    match activity with Some a -> a | None -> Activity.analyze nl
  in
  let clock_ghz = Library.clock_ghz lib in
  let dynamic = ref 0. and leakage = ref 0. in
  let cmos = ref 0. and stt = ref 0. in
  Netlist.iter
    (fun id node ->
      match Library.cell_of_kind lib node.Netlist.kind with
      | None -> ()
      | Some cell ->
          let a = Activity.switching act id in
          let dyn = Cell.dynamic_power_uw cell ~activity:a ~clock_ghz in
          let leak = cell.Cell.leakage_nw /. 1000. in
          dynamic := !dynamic +. dyn;
          leakage := !leakage +. leak;
          let total = dyn +. leak in
          (* the reconfigurable bucket, whatever the backend technology *)
          (match cell.Cell.style with
          | Cell.Stt_lut | Cell.Tvd -> stt := !stt +. total
          | Cell.Cmos | Cell.Sequential -> cmos := !cmos +. total))
    nl;
  {
    dynamic_uw = !dynamic;
    leakage_uw = !leakage;
    total_uw = !dynamic +. !leakage;
    cmos_uw = !cmos;
    stt_uw = !stt;
    avg_switching = Activity.average_switching act;
  }

let overhead_pct ~base ~modified =
  Sttc_util.Stats.relative_overhead ~base:base.total_uw ~modified:modified.total_uw

let pp_report fmt r =
  Format.fprintf fmt
    "power: %.2f uW total (%.2f dynamic, %.2f leakage; CMOS %.2f, STT %.2f; avg alpha %.3f)"
    r.total_uw r.dynamic_uw r.leakage_uw r.cmos_uw r.stt_uw r.avg_switching
