(** Kernel-throughput benchmark harness.

    Runs a fixed set of representative simulator workloads — a slice of
    the Figure 3 store-store sweep, the full litmus catalogue, the
    Figure 6(a) SPSC ring, a differential fuzz round, the job service,
    and two 256-core barrier workloads (many-core-central /
    many-core-tree) that stress wide sharer sets and same-timestamp
    event bursts — and reports events processed, wall time and
    events/second for each.  The
    workloads are deterministic (fixed seeds); only the wall-clock
    measurements vary between runs.  Results serialize to
    [BENCH_perf.json] so successive PRs can track the kernel's
    throughput trajectory, and a committed baseline can gate
    regressions in CI. *)

type sample = {
  name : string;
  events : int;  (** kernel events processed (0 when not measurable) *)
  wall_s : float;
  events_per_sec : float;  (** 0 when [events] is 0 *)
}

type results = {
  mode : string;  (** "full" or "quick" *)
  fault : string;  (** fault plan active during the run; "none" when off *)
  samples : sample list;
}

val run :
  ?quick:bool ->
  ?fault:Armb_fault.Plan.spec ->
  ?only:string list ->
  ?progress:(string -> unit) ->
  unit ->
  results
(** Execute every workload.  [quick] shrinks iteration/trial counts
    (~5x) for CI smoke use; [fault] perturbs the machine-backed
    workloads with the given plan and stamps the results with its name
    so a perturbed measurement can never pass for a clean baseline (a
    null plan counts as faults-off); [only] restricts the run to the
    named workloads, preserving the canonical order — an unknown name
    raises [Invalid_argument] listing the valid ids; [progress]
    receives one message per workload as it starts. *)

val pp : Format.formatter -> results -> unit

val to_json : results -> Armb_json.Json.t
(** Schema [armb-perf-v1]: mode, fault plan and one object per
    workload. *)

val load_json : path:string -> (results, string) result
(** Read a file written from {!to_json}, in any JSON layout.  A file
    without ["fault"] reads as faults-off.  [Error] carries the I/O
    error, the parser's position message, or the missing field. *)

type regression = { workload : string; baseline_eps : float; current_eps : float }

val compare_against : baseline:results -> results -> tolerance:float -> regression list
(** Workloads whose events/sec dropped more than [tolerance]
    (fractional, e.g. 0.2 = 20%) below the baseline.  Workloads absent
    from either side, or without event counts, are skipped. *)
