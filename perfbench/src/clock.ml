(* Host wall time on the monotonic clock, in seconds.  Every timing the
   benchmark reports comes from here; simulated cycles never do. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)
