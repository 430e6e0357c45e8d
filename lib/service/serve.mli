(** Front ends over {!Engine}: the NDJSON streaming loop behind
    [armb serve], the one-shot batch runner behind [armb serve --batch]
    / [armb batch], the deterministic duplicate-heavy demo batch the CI
    smoke and the perf harness share, and the warm-vs-cold comparison
    that verifies the cache instead of trusting it. *)

val emitter : out_channel -> Engine.response -> unit
(** [emitter oc] writes one response line per call to [oc].  Every
    line is rendered into one reused buffer: a fresh string per
    response would leave each long result line (over 2 KiB) as garbage
    in the major heap, which raises a server's peak memory. *)

val serve :
  ?drain_every:int ->
  ?max_requests:int ->
  ?duration_s:float ->
  Engine.t ->
  in_channel ->
  out_channel ->
  unit
(** Streaming mode: read one JSON request per line, write one JSON
    response per line.  Immediate answers (hits, sheds, errors) are
    emitted as soon as the request is read.  Queued work is drained as
    soon as no further input line is ready, whenever [drain_every]
    (default 16) computations are pending under sustained input, and at
    end of input.  Lines that are already readable are read before the
    drain, so identical requests arriving together coalesce.  On input
    that is always readable, such as a file, the loop drains only at
    [drain_every] and at end of input.

    Termination: the loop stops reading at EOF, after [max_requests]
    accepted (non-blank) request lines, or once [duration_s] seconds of
    wall clock have elapsed, whichever comes first; the deadline also
    ends a wait on idle input.  Shutdown drain semantics: stopping only
    stops {e reading}; every accepted request is drained to a response
    and flushed before return, and unread input is left unread — a
    bounded serve is a prefix of the unbounded one.

    Precondition: nothing has been read from [ic] yet; the loop reads
    its descriptor directly ({!Line_reader}), past the channel's
    buffer. *)

(** What {!stream} needs from a backend: the single engine ({!serve})
    or a shard pool ({!Shard.serve}). *)
type backend = {
  accept : lineno:int -> Engine.request -> unit;
      (** Take a decoded request from input line [lineno]; emit its
          answer now if there is one. *)
  answer : idle:bool -> float;
      (** Emit the answers that exist now.  [idle]: no input line is
          ready.  Returns how long the loop may then block on input:
          [0.] while an answer is still pending and worth polling for,
          [infinity] when nothing is pending. *)
  finish : unit -> unit;  (** Answer everything accepted so far. *)
}

val stream :
  ?max_requests:int ->
  ?duration_s:float ->
  (emit:(Engine.response -> unit) -> backend) ->
  in_channel ->
  out_channel ->
  unit
(** The streaming loop behind {!serve} and {!Shard.serve}: one reader
    over [ic] ({!Line_reader}), one bound check, one decode-error path,
    one flush policy, with the same termination, shutdown drain
    semantics and precondition as {!serve}.  It never blocks on input
    while [answer] reports an answer pending, and flushes output before
    every blocking wait and after every idle step. *)

(** Matches drained responses back to input slots by request id (ids
    may repeat: each id keys a FIFO of slots).  Shared by {!run_batch}
    and the sharded workers ({!Shard}), so both enforce the same
    response-count conservation. *)
module Slot_map : sig
  type t

  val create : unit -> t

  val expect : t -> id:string -> slot:int -> unit
  (** Register a queued request's slot under its id. *)

  val resolve : t -> id:string -> int option
  (** Pop the oldest slot waiting under [id]; [None] means the response
      is an orphan (nothing in this batch asked for it). *)

  val pending : t -> int
  (** Slots still waiting for a response. *)

  val leftovers : t -> (string * int) list
  (** Unanswered (id, slot) pairs, in slot order. *)
end

val orphan_response : Engine.response -> Engine.response
(** Re-tag a drained response nothing was waiting for as an [Error] row
    (it can only mean the engine held work submitted outside the
    batch) — surfaced instead of silently dropped. *)

val unanswered_response : id:string -> Engine.response
(** The [Error] row standing in for a request the engine never
    answered. *)

type batch = {
  responses : Engine.response list;  (** in input order *)
  wall_s : float;  (** submit + drain time, monotonic, >= 0 *)
}

val run_batch : Engine.t -> lines:string list -> batch
(** One-shot mode: submit every request (admission control — shedding —
    applies at submit time, so a bounded queue sheds rather than
    stalls), then drain.  Blank lines are skipped; unparseable lines
    produce error responses.  Requests without an ["id"] get their
    1-based line number.

    Response-count conservation holds: every non-blank input line gets
    exactly one response row in input order, a drained response no slot
    was waiting for is appended as an [Error]-tagged row rather than
    dropped, and a slot the engine never answered becomes an [Error]
    row too — [List.length responses >= number of non-blank lines],
    with equality exactly when the engine started the batch empty. *)

val signature : Engine.response -> string * string
(** The identity-relevant projection of a response: (status, result
    text).  Wall time, retry hints and cache origin are excluded — two
    responses with equal signatures answer the request identically.
    Both the warm-vs-cold and the sharded-vs-single comparisons gate on
    it. *)

type comparison = {
  cold : batch;  (** computed by a [no_cache] engine: every request runs *)
  warm : batch;  (** computed by a caching engine: duplicates hit/coalesce *)
  cold_metrics : Metrics.t;
  warm_metrics : Metrics.t;
  identical : bool;  (** ok-response result texts agree request-by-request *)
  speedup : float;  (** cold wall / warm wall *)
}

val compare_cold :
  ?cache_cap:int -> ?queue_bound:int -> lines:string list -> unit -> comparison
(** Run the same batch through a cacheless engine and a caching engine
    and compare byte-for-byte — the determinism oracle for the memo
    cache, and the speedup measurement the CI gate asserts on. *)

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
