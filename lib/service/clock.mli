(** Monotonic service clock.

    [Unix.gettimeofday] is wall time and steps backwards under NTP
    corrections; timing a computation with two raw samples can yield a
    negative duration, which corrupted the engine's latency histogram
    and retry-after accounting.  The clock therefore reads the OS
    monotonic clock by default, and still clamps readings to be
    non-decreasing whatever the source, so every interval measured
    against it is >= 0.

    The raw source is injectable for tests (a deterministic stepping
    source reproduces the clock-step regression without touching the
    system clock). *)

type t

val create : ?source:(unit -> float) -> unit -> t
(** [source] returns seconds as a float; defaults to the OS monotonic
    clock ([bechamel.monotonic_clock]), whose origin is arbitrary, so
    only differences between readings mean anything. *)

val now_us : t -> int
(** Current reading in microseconds, never less than any earlier
    reading of the same clock. *)

val elapsed_us : t -> since:int -> int
(** [elapsed_us t ~since:(now_us t)] later: microseconds elapsed,
    clamped at 0. *)
