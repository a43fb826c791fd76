let time f =
  let t0 = Deadline.now_s () in
  let result = f () in
  (result, Deadline.now_s () -. t0)

let format_min_sec seconds =
  if seconds < 0. then invalid_arg "Timing.format_min_sec: negative";
  (* round to tenths before splitting, so 59.95 s carries into "01:00.0" *)
  let tenths = int_of_float (Float.round (seconds *. 10.)) in
  Printf.sprintf "%02d:%02d.%d" (tenths / 600) (tenths mod 600 / 10)
    (tenths mod 10)
