(** The job service scaled across OCaml 5 domains.

    A pool of [domains] worker domains, each owning a private
    {!Engine.t}: memo cache, coalesce table and scheduler lanes are
    partitioned by job hash, so shards share no mutable job state and
    the hot path takes no lock.  Each worker runs its engine through
    {!Serve.driver}, the same driver as the single engine.  The
    caller's domain acts as the router: it parses each NDJSON line,
    computes the cheap {!Job.route_hash} (the expensive canonical
    keying happens on the shard), picks a shard by consistent hashing
    (64 virtual nodes per shard, so the key->shard map is stable in the
    domain count and balanced across shards) and ships the request
    through a single-producer single-consumer ring
    ({!Armb_runtime.Spsc_ring.Poly}); responses come back on a second
    ring per worker.  {!serve} and {!run_batch} are {!Serve.stream} and
    {!Serve.run_lines} over one router backend.

    The router also enforces the {e global} queue bound in input order,
    mirroring the single engine's shed behaviour instead of letting the
    effective bound scale with the domain count: a route hash already
    in flight will coalesce on its shard and one already completed will
    hit its shard's cache, so neither claims budget.  Shed hints come
    from the workers' completed-work totals, which each worker publishes
    in an [Atomic] after every drain; each worker returns its engine's
    metrics from its domain, and {!shutdown} merges them.

    A pool is single-router: drive each [t] from one domain at a time.
    All response-count conservation guarantees of {!Serve.run_lines}
    carry over. *)

type t

val create :
  ?domains:int ->
  ?cache_cap:int ->
  ?queue_bound:int ->
  ?no_cache:bool ->
  ?drain_every:int ->
  unit ->
  t
(** Spawn the worker domains.  [domains] defaults to 2; [cache_cap],
    [queue_bound] and [no_cache] configure each shard engine exactly as
    {!Engine.create} ([queue_bound] doubles as the router's global
    admission budget).  [drain_every] (default [max_int]) is the drain
    threshold per shard.  With a finite value a shard runs its queued
    work as soon as its request ring is empty, and under sustained
    input whenever [drain_every] computations are pending; {!serve}
    callers pass 16, as the single-domain loop uses.  The default is
    the batch policy: queued work waits for the router's drain barrier
    (in {!serve}, the end of input) so duplicates coalesce
    deterministically. *)

val domains : t -> int

val shard_of_hash : t -> int -> int
(** The consistent-hash ring lookup, exposed for the stability and
    balance tests: which shard owns a route hash. *)

val shard_of : t -> Engine.request -> int
(** [shard_of_hash] of the request's {!Job.route_hash}. *)

val run_batch : t -> lines:string list -> Serve.batch
(** One-shot batch over the pool ({!Serve.run_lines}): route every
    request (router-side admission sheds above the global bound), then
    barrier on every shard draining.  Responses come back in input
    order, orphans appended, with the same conservation contract as
    {!Serve.run_batch}.  The pool stays warm: a second batch on the
    same [t] hits the shard caches. *)

val serve :
  ?max_requests:int -> ?duration_s:float -> t -> in_channel -> out_channel -> unit
(** Streaming NDJSON loop over the pool, the same loop as {!Serve.serve}
    ({!Serve.stream}).  Immediate answers (errors, router sheds) are
    emitted at once.  While any forwarded request is unanswered and no
    input line is ready, the router polls the row rings and emits each
    row as it arrives: back to back for a moment, then between short
    waits on the input, so it never blocks on input for longer than
    that while an answer is pending.  When a shard runs queued work is
    set by [drain_every] at {!create}.  Output is flushed before every
    blocking wait.

    Returns on EOF — or after [max_requests] accepted request lines or
    [duration_s] seconds, whichever comes first, also while the input
    is idle — with the same shutdown drain semantics as {!Serve.serve}:
    bounds stop {e reading}, never answering; every outstanding
    response is written and flushed.  Precondition: nothing has been
    read from [ic] yet.  The pool stays live; call {!shutdown} to stop
    it. *)

val shutdown : t -> Engine.response list
(** Stop and join every worker domain, folding per-shard engine metrics
    into the aggregate.  Returns any responses still in flight (always
    [[]] after a completed {!run_batch}/{!serve} — surfaced rather than
    silently dropped, per the conservation contract).  Idempotent. *)

val metrics : t -> Metrics.t
(** The pool aggregate: router-side sheds plus, after {!shutdown},
    every shard engine's counters and latency histogram merged. *)

val server :
  ?domains:int ->
  ?cache_cap:int ->
  ?queue_bound:int ->
  ?no_cache:bool ->
  ?drain_every:int ->
  unit ->
  Serve.server
(** The engine or pool a front end runs on: one engine in this domain
    ({!Serve.of_engine}) when [domains] is 1 or less (the default),
    otherwise a pool of [domains] workers ({!create}) whose [stop] is
    {!shutdown}.  [drain_every] defaults to [max_int], the batch policy,
    for both. *)

type comparison = {
  single : Serve.batch;  (** one engine, one domain *)
  sharded : Serve.batch;  (** the same lines through a [domains]-pool *)
  single_metrics : Metrics.t;
  sharded_metrics : Metrics.t;
  identical : bool;
      (** response signatures agree slot-by-slot and nothing strayed *)
  coalesced : int;  (** sharded-side coalesced count (the CI gate) *)
  speedup : float;  (** single wall / sharded wall *)
}

val compare_single :
  ?cache_cap:int ->
  ?queue_bound:int ->
  domains:int ->
  lines:string list ->
  unit ->
  comparison
(** Run the same batch through one engine and through a sharded pool
    and compare signatures request-by-request — the determinism oracle
    for the shard layer (routing, coalescing and caching must not
    change any answer), and the byte-identity gate the CI smoke
    asserts on.  [queue_bound] defaults to covering the whole batch so
    neither side sheds. *)
