(** Power estimation for pure-CMOS and hybrid STT-CMOS netlists.

    CMOS gates and flip-flops burn [activity * E_sw * f] dynamic power plus
    leakage; STT LUTs burn their pre-charge energy every cycle regardless
    of data activity (their defining property, Section III) plus a
    near-zero standby term.  The paper's Table I "power overhead %" is the
    relative difference of two such estimates. *)

type report = {
  dynamic_uw : float;
  leakage_uw : float;
  total_uw : float;
  cmos_uw : float;  (** gates + flip-flops *)
  stt_uw : float;  (** LUT slots *)
  avg_switching : float;
}

val estimate :
  ?activity:Activity.t ->
  Sttc_tech.Library.t ->
  Sttc_netlist.Netlist.t ->
  report
(** When [activity] is omitted it is computed with default PI
    probabilities. *)

val overhead_pct : base:report -> modified:report -> float
(** Total-power overhead percentage, Table I style. *)

val pp_report : Format.formatter -> report -> unit
