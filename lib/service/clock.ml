(* The engine used to time computations with raw [Unix.gettimeofday];
   an NTP step or manual clock change between the two samples produced
   a *negative* wall_us, which then corrupted wall_us_total (the
   retry-after estimator), the latency histogram and every summary
   derived from them.  The default source is the OS monotonic
   clock, which cannot step; the clamp stays so that an injected
   source still never yields readings that go backwards, and intervals
   are >= 0 by construction. *)

type t = { source : unit -> float; mutable last_us : int }

let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(source = monotonic) () = { source; last_us = min_int }

let now_us t =
  let raw = int_of_float (t.source () *. 1e6) in
  if raw > t.last_us then t.last_us <- raw;
  t.last_us

let elapsed_us t ~since = max 0 (now_us t - since)
