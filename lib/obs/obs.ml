module Json = Json
module Build_info = Build_info
module Span = Span
module Metrics = Metrics
module Export = Export

let enabled = Control.enabled
let enable = Control.enable
let disable = Control.disable

let reset () =
  Span.reset ();
  Metrics.reset ();
  Control.reset_origin ()

let attach_pool () =
  Sttc_util.Pool.set_probe
    (Some
       {
         on_submit =
           (fun ~tasks ~chunks ->
             Metrics.incr "pool.submits";
             Metrics.incr ~by:tasks "pool.tasks";
             Metrics.incr ~by:chunks "pool.chunks";
             Metrics.peak_gauge "pool.queue_depth" (float_of_int chunks));
         around_chunk =
           (fun ~size f ->
             if not (Control.enabled ()) then f ()
             else begin
               let t0 = Control.now_us () in
               Span.with_ "pool.chunk"
                 ~attrs:[ ("tasks", string_of_int size) ]
                 f;
               Metrics.observe "pool.chunk_seconds"
                 ((Control.now_us () -. t0) *. 1e-6)
             end);
       })

let detach_pool () = Sttc_util.Pool.set_probe None

let with_run ?trace ?metrics f =
  match (trace, metrics) with
  | None, None -> f ()
  | _ ->
      attach_pool ();
      enable ();
      Fun.protect
        ~finally:(fun () ->
          disable ();
          Option.iter (fun p -> Export.write_file p (Export.trace_json ())) trace;
          Option.iter
            (fun p -> Export.write_file p (Export.metrics_json ()))
            metrics;
          reset ();
          detach_pool ())
        f

let load_json path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | s -> Json.of_string s

let validate_trace_file path =
  Result.bind (load_json path) Export.validate_trace

let validate_metrics_file ?min_series ?require path =
  Result.bind (load_json path) (Export.validate_metrics ?min_series ?require)
