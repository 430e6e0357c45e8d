(* Sharded serving: the memoizing engine scaled across OCaml 5 domains.

   One router (the caller's domain) parses NDJSON lines, hashes each
   job's surface form ({!Job.route_hash} — cheap, none of the canonical
   key's renaming) and routes it through a consistent-hash ring to one
   of N worker domains.  Each worker owns a private
   {!Engine.t}, so the memo cache, the coalesce table and the scheduler
   lanes are partitioned by job hash and shards share no mutable job
   state — the hot path needs no lock at all.  The expensive per-request
   work (canonical keying, execution) happens on the shard; the router
   only parses and hashes.  Each worker runs its engine through the
   same driver as the single engine ({!Serve.driver}), emitting onto
   its row ring.

   The data plane is one pair of SPSC rings per worker
   ({!Armb_runtime.Spsc_ring.Poly}, the paper's Algorithm 2 protocol
   over boxed payloads).  The control plane is plain: each worker
   publishes its completed-work account in an [Atomic] after each
   drain, which the router sums to price shed hints, and returns its
   engine's metrics from its domain, which [shutdown] merges.

   Deadlock freedom: the only blocking sends are router -> requests and
   worker -> rows.  A router blocked on a full request ring polls every
   row ring while it waits, so a worker blocked on a full row ring is
   always eventually drained — each side unblocks the other. *)

module Ring = Armb_runtime.Spsc_ring.Poly
module Backoff = Armb_runtime.Backoff

type to_worker =
  | Req of { slot : int; req : Engine.request }
  | Drain
  | Stop

type from_worker =
  | Row of { slot : int; resp : Engine.response }  (* slot -1: orphan *)
  | Drained
  | Stopped

type worker = {
  requests : to_worker Ring.t;
  rows : from_worker Ring.t;
  totals : (int * int) Atomic.t;  (* the shard's Engine.totals after its last drain *)
  domain : Metrics.t Domain.t;  (* returns the shard engine's metrics *)
}

type t = {
  queue_bound : int;  (* the *global* distinct-computation budget *)
  no_cache : bool;
  workers : worker array;
  points : (int * int) array;  (* consistent-hash ring: (point, shard) sorted *)
  agg : Metrics.t;  (* router sheds; shard engine metrics fold in at shutdown *)
  mutable stopped : bool;
}

let domains t = Array.length t.workers

(* ---------- consistent hashing ---------- *)

let hash_mask = (1 lsl 30) - 1
let replicas = 64

let build_points domains =
  let pts =
    Array.init (domains * replicas) (fun i ->
        let shard = i / replicas and replica = i mod replicas in
        (Hashtbl.hash ("armb-shard", shard, replica) land hash_mask, shard))
  in
  Array.sort compare pts;
  pts

let shard_of_hash t h =
  let h = h land hash_mask in
  let pts = t.points in
  let n = Array.length pts in
  (* first ring point at or after h, wrapping past the top *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst pts.(mid) >= h then go lo mid else go (mid + 1) hi
  in
  let i = go 0 n in
  snd pts.(if i = n then 0 else i)

let shard_of t (req : Engine.request) = shard_of_hash t (Job.route_hash req.Engine.job)

(* ---------- worker domains ---------- *)

let worker_loop ~cache_cap ~queue_bound ~no_cache ~drain_every ~requests ~rows ~totals =
  let engine = Engine.create ~cache_cap ~queue_bound ~no_cache () in
  let b =
    Serve.driver ~drain_every engine ~emit:(fun ~slot resp ->
        Ring.send rows (Row { slot; resp }))
  in
  let publish () = Atomic.set totals (Engine.totals engine) in
  (* publish the completed-work account after a drain, and only then:
     the idle loop must not allocate *)
  let answer ~idle =
    let queued = Engine.pending engine in
    ignore (b.Serve.answer ~idle : float);
    if Engine.pending engine < queued then publish ()
  in
  let backoff = Backoff.create () in
  let rec loop () =
    match Ring.try_recv requests with
    | Some (Req { slot; req }) ->
      Backoff.reset backoff;
      b.Serve.accept ~slot req;
      answer ~idle:false;
      loop ()
    | Some Drain ->
      Backoff.reset backoff;
      b.Serve.finish ();
      publish ();
      Ring.send rows Drained;
      loop ()
    | Some Stop ->
      b.Serve.finish ();
      Ring.send rows Stopped;
      Engine.metrics engine
    | None ->
      (* idle: in streaming mode the driver runs queued work now; in
         batch mode ([drain_every = max_int]) it holds it so duplicates
         keep coalescing until the router says Drain *)
      answer ~idle:true;
      Backoff.once backoff;
      loop ()
  in
  loop ()

let create ?(domains = 2) ?(cache_cap = 512) ?(queue_bound = 256) ?(no_cache = false)
    ?(drain_every = max_int) () =
  if domains < 1 then invalid_arg "Shard.create: domains must be >= 1";
  if queue_bound < 1 then invalid_arg "Shard.create: queue_bound must be >= 1";
  let workers =
    Array.init domains (fun _ ->
        let requests = Ring.create ~slots:1024 in
        let rows = Ring.create ~slots:1024 in
        let totals = Atomic.make (0, 0) in
        let domain =
          Domain.spawn (fun () ->
              worker_loop ~cache_cap ~queue_bound ~no_cache ~drain_every ~requests
                ~rows ~totals)
        in
        { requests; rows; totals; domain })
  in
  {
    queue_bound;
    no_cache;
    workers;
    points = build_points domains;
    agg = Metrics.create ();
    stopped = false;
  }

(* ---------- router-side admission ---------- *)

(* The single engine sheds when the number of distinct queued
   computations reaches its bound.  Per-shard bounds would multiply that
   by the domain count, so the router enforces the global bound itself,
   in line order, using the route hash as a stand-in for key
   distinctness: a hash already in flight will coalesce on its shard and
   a hash already completed will hit its shard's cache, so neither
   claims budget; anything else claims a slot or is shed.  The stand-in
   is exact for codec-built requests up to hash collisions and cache
   eviction, either of which costs at most a transient budget
   mismatch — never a wrong answer. *)
type admission = {
  inflight : (int, unit) Hashtbl.t;  (* route hashes holding a budget slot *)
  completed : (int, unit) Hashtbl.t;  (* route hashes with a cached result *)
  mutable budget : int;
}

let admission_create () =
  { inflight = Hashtbl.create 64; completed = Hashtbl.create 256; budget = 0 }

(* [Some consumed]: forward (claiming a budget slot iff [consumed]);
   [None]: shed. *)
let admit adm ~no_cache ~bound rh =
  if
    (not no_cache)
    && (Hashtbl.mem adm.inflight rh || Hashtbl.mem adm.completed rh)
  then Some false
  else if adm.budget >= bound then None
  else begin
    if not no_cache then Hashtbl.replace adm.inflight rh ();
    adm.budget <- adm.budget + 1;
    Some true
  end

(* Account for a row coming back for a tracked slot. *)
let settle adm ~no_cache ~rh ~consumed (resp : Engine.response) =
  (match resp.Engine.reply with
  | Engine.Result _ when not no_cache -> Hashtbl.replace adm.completed rh ()
  | _ -> ());
  if consumed then
    if no_cache then adm.budget <- adm.budget - 1
    else if Hashtbl.mem adm.inflight rh then begin
      Hashtbl.remove adm.inflight rh;
      adm.budget <- adm.budget - 1
    end

(* The single engine's hint over every shard's completed work. *)
let retry_hint t ~queued =
  Engine.retry_hint ~queued
    (Array.fold_left
       (fun (d, w) wk ->
         let d', w' = Atomic.get wk.totals in
         (d + d', w + w'))
       (0, 0) t.workers)

let shed_response t adm (req : Engine.request) =
  Metrics.submitted t.agg;
  Metrics.shed t.agg;
  {
    Engine.id = req.Engine.id;
    client = req.Engine.client;
    reply = Engine.Shed { retry_after_ms = retry_hint t ~queued:adm.budget };
  }

(* Poll every worker's row ring to exhaustion. *)
let poll t handle =
  Array.iter
    (fun w ->
      let rec go () =
        match Ring.try_recv w.rows with
        | Some m ->
          handle m;
          go ()
        | None -> ()
      in
      go ())
    t.workers

(* Blocking send that keeps the row rings moving (see the deadlock note
   at the top of the file). *)
let forward t handle w msg =
  if not (Ring.try_send w.requests msg) then begin
    let b = Backoff.create () in
    while not (Ring.try_send w.requests msg) do
      poll t handle;
      Backoff.once b
    done
  end

(* ---------- the router backend ---------- *)

(* While a forwarded request is unanswered and no input line is ready,
   the router polls the row rings between polls of the input: back to
   back for [spin_us] after the last answer arrived, which covers a hit's
   hop, then separated by a wait of up to [idle_wait_s] on the input,
   so a long computation costs a wake-up per wait instead of a busy
   core. *)
let spin_us = 200

let idle_wait_s = 0.0005

(* One run over the pool, for a stream or a batch: admission, routing,
   the rows coming back, and a drain barrier on every shard at
   [finish]. *)
let backend t ~(emit : Serve.emit) =
  if t.stopped then invalid_arg "Shard: shard pool already shut down";
  let adm = admission_create () in
  let tracked : (int, int * bool) Hashtbl.t = Hashtbl.create 256 in
  let drained = ref 0 in
  let clock = Clock.create () in
  let quiet_since = ref None in
  let handle = function
    | Row { slot; resp } ->
      (match Hashtbl.find_opt tracked slot with
      | Some (rh, consumed) ->
        Hashtbl.remove tracked slot;
        settle adm ~no_cache:t.no_cache ~rh ~consumed resp
      | None -> ());
      emit ~slot resp
    | Drained -> incr drained
    | Stopped -> ()
  in
  {
    Serve.accept =
      (fun ~slot req ->
        let rh = Job.route_hash req.Engine.job in
        match admit adm ~no_cache:t.no_cache ~bound:t.queue_bound rh with
        | None -> emit ~slot (shed_response t adm req)
        | Some consumed ->
          Hashtbl.replace tracked slot (rh, consumed);
          forward t handle t.workers.(shard_of_hash t rh) (Req { slot; req }));
    answer =
      (fun ~idle ->
        let before = Hashtbl.length tracked in
        poll t handle;
        let waiting = Hashtbl.length tracked in
        if waiting > 0 && idle && waiting = before then begin
          let now = Clock.now_us clock in
          let since = Option.value !quiet_since ~default:now in
          quiet_since := Some since;
          if now - since < spin_us then 0. else idle_wait_s
        end
        else begin
          quiet_since := None;
          if waiting > 0 then 0. else infinity
        end);
    finish =
      (fun () ->
        drained := 0;
        Array.iter (fun w -> forward t handle w Drain) t.workers;
        let b = Backoff.create () in
        while !drained < domains t do
          let before = !drained in
          poll t handle;
          if !drained = before then Backoff.once b else Backoff.reset b
        done);
  }

let run_batch t ~lines = Serve.run_lines (backend t) ~lines

let serve ?max_requests ?duration_s t = Serve.stream ?max_requests ?duration_s (backend t)

(* ---------- shutdown ---------- *)

let metrics t = t.agg

let shutdown t =
  if t.stopped then []
  else begin
    t.stopped <- true;
    let stray = ref [] in
    let handle = function
      | Row { resp; _ } -> stray := resp :: !stray
      | Drained | Stopped -> ()
    in
    Array.iter (fun w -> forward t handle w Stop) t.workers;
    Array.iter
      (fun w ->
        let b = Backoff.create () in
        let rec wait () =
          match Ring.try_recv w.rows with
          | Some Stopped -> ()
          | Some m ->
            handle m;
            Backoff.reset b;
            wait ()
          | None ->
            Backoff.once b;
            wait ()
        in
        wait ();
        Metrics.merge_into ~dst:t.agg (Domain.join w.domain))
      t.workers;
    List.rev !stray
  end

(* ---------- engine or pool ---------- *)

let of_pool t =
  { Serve.backend = backend t; metrics = (fun () -> metrics t); stop = (fun () -> shutdown t) }

let server ?(domains = 1) ?(cache_cap = 512) ?(queue_bound = 256) ?(no_cache = false)
    ?(drain_every = max_int) () =
  if domains <= 1 then
    Serve.of_engine ~drain_every (Engine.create ~cache_cap ~queue_bound ~no_cache ())
  else of_pool (create ~domains ~cache_cap ~queue_bound ~no_cache ~drain_every ())

(* ---------- sharded vs single-domain comparison ---------- *)

type comparison = {
  single : Serve.batch;
  sharded : Serve.batch;
  single_metrics : Metrics.t;
  sharded_metrics : Metrics.t;
  identical : bool;
  coalesced : int;
  speedup : float;
}

let compare_single ?(cache_cap = 512) ?queue_bound ~domains:n ~lines () =
  let queue_bound =
    match queue_bound with Some b -> b | None -> max 256 (List.length lines)
  in
  let c =
    Serve.compare_servers ~lines
      (fun () -> server ~cache_cap ~queue_bound ())
      (fun () -> of_pool (create ~domains:n ~cache_cap ~queue_bound ()))
  in
  {
    single = c.Serve.cold;
    sharded = c.Serve.warm;
    single_metrics = c.Serve.cold_metrics;
    sharded_metrics = c.Serve.warm_metrics;
    identical = c.Serve.identical;
    coalesced = Metrics.get c.Serve.warm_metrics "coalesced";
    speedup = c.Serve.speedup;
  }
