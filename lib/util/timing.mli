(** Elapsed-time measurement used for the Table II reproduction. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    seconds on the monotonic {!Deadline.now_s} clock, so a wall-clock
    step can never make a duration negative. *)

val format_min_sec : float -> string
(** Render seconds as the paper's Table II format ["MM:SS.d"], rounded
    to tenths, e.g. [format_min_sec 75.5 = "01:15.5"] and
    [format_min_sec 59.95 = "01:00.0"]. *)
