exception Expired

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = float

(* domain-local, so pool workers and serve workers each keep their own;
   [infinity] means no budget is armed *)
let key : float ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref infinity)

let current () = !(Domain.DLS.get key)

let check () =
  let d = !(Domain.DLS.get key) in
  if d < infinity && now_s () >= d then raise Expired

let adopt d f =
  let cell = Domain.DLS.get key in
  let outer = !cell in
  cell := d;
  Fun.protect ~finally:(fun () -> cell := outer) f

let within seconds f =
  if seconds <= 0. then Error `Expired
  else begin
    let outer = current () in
    let own = now_s () +. seconds in
    (* the enclosing budget keeps the expiry when it has run out too *)
    let expired () =
      if now_s () >= outer then raise Expired else Error `Expired
    in
    match adopt (Float.min outer own) f with
    | v -> if now_s () >= own then expired () else Ok v
    | exception Expired -> expired ()
  end
