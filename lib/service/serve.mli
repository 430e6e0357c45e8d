(** Front ends over {!Engine}: the one engine driver, the NDJSON
    streaming loop behind [armb serve] and the one-shot batch runner
    behind [armb serve --batch] / [armb batch] — both over any backend,
    the single engine or a shard pool ({!Shard}) — plus the
    deterministic demo traffic the CI smoke and the perf harness share,
    and the comparisons that verify the cache and the shard layer
    instead of trusting them. *)

val emitter : out_channel -> Engine.response -> unit
(** [emitter oc] writes one response line per call to [oc].  Every
    line is rendered into one reused buffer: a fresh string per
    response would leave each long result line (over 2 KiB) as garbage
    in the major heap, which raises a server's peak memory. *)

(** Matches drained responses back to input slots by request id (ids
    may repeat: each id keys a FIFO of slots).  The engine driver keeps
    one per run, so every backend enforces the same response-count
    conservation. *)
module Slot_map : sig
  type t

  val create : unit -> t

  val expect : t -> id:string -> slot:int -> unit
  (** Register a queued request's slot under its id. *)

  val resolve : t -> id:string -> int option
  (** Pop the oldest slot waiting under [id]; [None] means the response
      is an orphan (nothing asked for it).  An id whose last slot is
      resolved leaves the map, so the map's size is bounded by the slots
      still waiting, however many distinct ids have passed through. *)

  val pending : t -> int
  (** Slots still waiting for a response. *)

  val leftovers : t -> (string * int) list
  (** Remove and return the unanswered (id, slot) pairs, in slot order. *)
end

(** One run (a stream or a batch) over the single engine or a shard
    pool. *)
type backend = {
  accept : slot:int -> Engine.request -> unit;
      (** Take a decoded request for [slot]; emit its answer now if
          there is one. *)
  answer : idle:bool -> float;
      (** Emit the answers that exist now.  [idle]: no input line is
          ready.  Returns how long the loop may then block on input:
          [0.] while an answer is still pending and worth polling for,
          [infinity] when nothing is pending. *)
  finish : unit -> unit;  (** Answer everything accepted so far. *)
}

type emit = slot:int -> Engine.response -> unit
(** Where a backend sends each answer, with the slot its request was
    accepted under; slot [-1] marks an orphan row. *)

val driver : ?drain_every:int -> Engine.t -> emit:emit -> backend
(** The engine driver, the only caller of {!Engine.submit} and
    {!Engine.drain}: it submits, matches drained answers to their slots
    ({!Slot_map}), and drains whenever [drain_every] (default 16)
    computations are pending, when [answer] is called [idle] with work
    queued, and at [finish].  A drained answer nothing waits for (the
    engine held work from outside the run) is emitted as an [Error] row
    at slot [-1], and a slot a drain left unanswered gets an [Error]
    row, so nothing is silently dropped.  [drain_every = max_int] is
    the batch policy: queued work waits for [finish], so duplicates keep
    coalescing.  Each shard worker runs one with [emit] sending on its
    row ring. *)

val stream :
  ?max_requests:int ->
  ?duration_s:float ->
  (emit:emit -> backend) ->
  in_channel ->
  out_channel ->
  unit
(** The streaming loop behind {!serve} and {!Shard.serve}: read one
    JSON request per line, write one JSON response per line, in the
    order the answers come.  Blank lines are skipped; requests without
    an ["id"] get their 1-based line number.  Lines that are already
    readable are read before an idle drain, so identical requests
    arriving together coalesce.  It never blocks on input while
    [answer] reports an answer pending, and flushes output before every
    blocking wait and after every idle step.

    Termination: the loop stops reading at EOF, after [max_requests]
    accepted (non-blank) request lines, or once [duration_s] seconds of
    wall clock have elapsed, whichever comes first; the deadline also
    ends a wait on idle input.  Shutdown drain semantics: stopping only
    stops {e reading}; every accepted request is answered and flushed
    before return, and unread input is left unread — a bounded serve is
    a prefix of the unbounded one.

    Precondition: nothing has been read from [ic] yet; the loop reads
    its descriptor directly ({!Line_reader}), past the channel's
    buffer. *)

val serve :
  ?drain_every:int ->
  ?max_requests:int ->
  ?duration_s:float ->
  Engine.t ->
  in_channel ->
  out_channel ->
  unit
(** {!stream} over {!driver}: hits, sheds and errors are emitted as
    soon as the request is read; queued work is drained as soon as no
    further input line is ready, whenever [drain_every] (default 16)
    computations are pending under sustained input, and at end of
    input.  On input that is always readable, such as a file, that is
    only at [drain_every] and at end of input. *)

type batch = {
  responses : Engine.response list;  (** in input order *)
  wall_s : float;  (** submit + drain time, monotonic, >= 0 *)
}

val run_lines : (emit:emit -> backend) -> lines:string list -> batch
(** The one-shot runner behind {!run_batch} and {!Shard.run_batch}:
    accept every request (admission control — shedding — applies as
    each is accepted, so a bounded queue sheds rather than stalls),
    then [finish].  Blank lines are skipped; unparseable lines produce
    error responses.  Requests without an ["id"] get their 1-based line
    number.

    Response-count conservation holds: every non-blank input line gets
    exactly one response row in input order, a response no slot was
    waiting for is appended as an [Error]-tagged row rather than
    dropped, and a slot never answered becomes an [Error] row too —
    [List.length responses >= number of non-blank lines], with equality
    exactly when the backend started the batch empty. *)

val run_batch : Engine.t -> lines:string list -> batch
(** {!run_lines} over {!driver} with the batch policy: every request is
    submitted before the one drain. *)

(** The single engine or a shard pool, as one value: a front end runs
    streams and batches over [backend] without knowing which it has. *)
type server = {
  backend : emit:emit -> backend;
  metrics : unit -> Metrics.t;
      (** A pool's shard engines fold in only at [stop]. *)
  stop : unit -> Engine.response list;
      (** Stop the server and return any response still in flight
          (always [[]] after a finished run). *)
}

val of_engine : ?drain_every:int -> Engine.t -> server
(** The engine in this domain, run by {!driver}. *)

val signature : Engine.response -> string * string
(** The identity-relevant projection of a response: (status, result
    text).  Wall time, retry hints and cache origin are excluded — two
    responses with equal signatures answer the request identically.
    Both the warm-vs-cold and the sharded-vs-single comparisons gate on
    it. *)

type comparison = {
  cold : batch;  (** the first server's run *)
  warm : batch;  (** the second server's run *)
  cold_metrics : Metrics.t;
  warm_metrics : Metrics.t;
  identical : bool;
      (** response signatures agree slot by slot and neither server
          held a stray response at [stop] *)
  speedup : float;  (** cold wall / warm wall *)
}

val compare_servers :
  lines:string list -> (unit -> server) -> (unit -> server) -> comparison
(** Start the first server, run [lines] through it and stop it; then
    the same with the second; then compare signatures.  {!compare_cold}
    and {!Shard.compare_single} are this with different servers. *)

val compare_cold :
  ?cache_cap:int -> ?queue_bound:int -> lines:string list -> unit -> comparison
(** Run the same batch through a cacheless engine and a caching engine
    and compare byte-for-byte — the determinism oracle for the memo
    cache, and the speedup measurement the CI gate asserts on.
    [queue_bound] defaults to covering the whole batch. *)

val demo_requests : ?pool:int -> requests:int -> seed:int -> unit -> string list
(** A deterministic duplicate-heavy request batch: [requests] NDJSON
    lines drawn uniformly from a pool of [pool] (default 40) distinct
    jobs over the litmus catalogue, sanitizer, abstracted model, SPSC
    ring and fuzzer, spread over three clients and all three
    priorities.  With the defaults, at least half the lines duplicate
    an earlier one. *)

val zipf_requests :
  ?pool:int ->
  ?alpha:float ->
  ?clients:int ->
  requests:int ->
  seed:int ->
  unit ->
  string list
(** Production-shaped skewed traffic, fully deterministic in [seed]:
    job popularity follows a Zipf law over the demo pool (rank [r]
    with weight [r^-alpha], default [alpha = 1.1], so a handful of hot
    keys dominate — the coalescing/memoization stress case), and each
    request comes from one of [clients] (default 64) distinct client
    names so scheduler-lane registration churns.  Priorities mix as in
    {!demo_requests}. *)

val summary : batch -> Metrics.t -> string
(** Human summary table: totals by status/origin, hit rate, latency
    percentiles. *)
