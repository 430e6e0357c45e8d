(* Sharded serving: the memoizing engine scaled across OCaml 5 domains.

   One router (the caller's domain) parses NDJSON lines, hashes each
   job's surface form ({!Job.route_hash} — cheap, none of the canonical
   key's renaming) and routes it through a consistent-hash ring to one
   of N worker domains.  Each worker owns a private
   {!Engine.t}, so the memo cache, the coalesce table and the scheduler
   lanes are partitioned by job hash and shards share no mutable job
   state — the hot path needs no lock at all.  The expensive per-request
   work (canonical keying, execution) happens on the shard; the router
   only parses and hashes.

   The data plane is one pair of SPSC rings per worker
   ({!Armb_runtime.Spsc_ring.Poly}, the paper's Algorithm 2 protocol
   over boxed payloads).  The control plane reuses the runtime's
   delegation primitives: every shard folds its completed-work account
   into one global cell through a DSM-Synch combining lock, so the
   router's shed hints reflect global progress, and per-shard engine
   metrics merge into one aggregate under a ticket lock at shutdown.

   Deadlock freedom: the only blocking sends are router -> requests and
   worker -> rows.  A router blocked on a full request ring polls every
   row ring while it waits, so a worker blocked on a full row ring is
   always eventually drained — each side unblocks the other. *)

module Ring = Armb_runtime.Spsc_ring.Poly
module Backoff = Armb_runtime.Backoff
module Ticket_lock = Armb_runtime.Ticket_lock
module Dsmsynch = Armb_runtime.Dsmsynch

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
  domain : unit Domain.t;
}

(* Completed-work account shared by all shards; mutated only inside
   [Dsmsynch.exec] closures, which serializes access and publishes the
   writes to whichever domain delegates next. *)
type global = { mutable done_ : int; mutable wall_us : int }

type t = {
  domains : int;
  queue_bound : int;  (* the *global* distinct-computation budget *)
  no_cache : bool;
  workers : worker array;
  points : (int * int) array;  (* consistent-hash ring: (point, shard) sorted *)
  stats_lock : Dsmsynch.t;
  global : global;
  merge_lock : Ticket_lock.t;
  agg : Metrics.t;  (* per-shard engine metrics fold in at Stop *)
  router_metrics : Metrics.t;  (* router-side sheds *)
  mutable stopped : bool;
}

let domains t = t.domains

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

let worker_loop ~cache_cap ~queue_bound ~no_cache ~drain_every ~requests ~rows
    ~stats_lock ~global ~merge_lock ~agg =
  let engine = Engine.create ~cache_cap ~queue_bound ~no_cache () in
  let waiting = ref (Serve.Slot_map.create ()) in
  let last_done = ref 0 in
  let last_wall = ref 0 in
  (* fold this shard's completed-work delta into the global account *)
  let publish () =
    let d, w = Engine.totals engine in
    let dd = d - !last_done and dw = w - !last_wall in
    if dd > 0 || dw > 0 then begin
      last_done := d;
      last_wall := w;
      ignore
        (Dsmsynch.exec stats_lock (fun () ->
             global.done_ <- global.done_ + dd;
             global.wall_us <- global.wall_us + dw;
             0))
    end
  in
  let drain_all () =
    List.iter
      (fun (resp : Engine.response) ->
        match Serve.Slot_map.resolve !waiting ~id:resp.Engine.id with
        | Some slot -> Ring.send rows (Row { slot; resp })
        | None -> Ring.send rows (Row { slot = -1; resp = Serve.orphan_response resp }))
      (Engine.drain engine);
    (* [Engine.drain] runs to exhaustion, so anything still expected was
       dropped by the engine: surface it, same as the single-domain
       batch runner, and start a fresh map. *)
    if Serve.Slot_map.pending !waiting > 0 then begin
      List.iter
        (fun (id, slot) ->
          Ring.send rows (Row { slot; resp = Serve.unanswered_response ~id }))
        (Serve.Slot_map.leftovers !waiting);
      waiting := Serve.Slot_map.create ()
    end;
    publish ()
  in
  let b = Backoff.create () in
  let running = ref true in
  while !running do
    match Ring.try_recv requests with
    | Some (Req { slot; req }) ->
      Backoff.reset b;
      (match Engine.submit engine req with
      | Some resp -> Ring.send rows (Row { slot; resp })
      | None -> Serve.Slot_map.expect !waiting ~id:req.Engine.id ~slot);
      if Engine.pending engine >= drain_every then drain_all ()
    | Some Drain ->
      Backoff.reset b;
      drain_all ();
      Ring.send rows Drained
    | Some Stop ->
      drain_all ();
      Ticket_lock.with_lock merge_lock (fun () ->
          Metrics.merge_into ~dst:agg (Engine.metrics engine));
      Ring.send rows Stopped;
      running := false
    | None ->
      (* idle: in streaming mode run queued work eagerly; in batch mode
         ([drain_every = max_int]) hold it so duplicates keep coalescing
         until the router says Drain *)
      if drain_every < max_int && Engine.pending engine > 0 then drain_all ()
      else Backoff.once b
  done

let create ?(domains = 2) ?(cache_cap = 512) ?(queue_bound = 256) ?(no_cache = false)
    ?(drain_every = max_int) () =
  if domains < 1 then invalid_arg "Shard.create: domains must be >= 1";
  if queue_bound < 1 then invalid_arg "Shard.create: queue_bound must be >= 1";
  let stats_lock = Dsmsynch.create () in
  let global = { done_ = 0; wall_us = 0 } in
  let merge_lock = Ticket_lock.create () in
  let agg = Metrics.create () in
  let workers =
    Array.init domains (fun _ ->
        let requests = Ring.create ~slots:1024 in
        let rows = Ring.create ~slots:1024 in
        let domain =
          Domain.spawn (fun () ->
              worker_loop ~cache_cap ~queue_bound ~no_cache ~drain_every ~requests
                ~rows ~stats_lock ~global ~merge_lock ~agg)
        in
        { requests; rows; domain })
  in
  {
    domains;
    queue_bound;
    no_cache;
    workers;
    points = build_points domains;
    stats_lock;
    global;
    merge_lock;
    agg;
    router_metrics = Metrics.create ();
    stopped = false;
  }

let ensure_live t name =
  if t.stopped then invalid_arg (name ^ ": shard pool already shut down")

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

let retry_hint t ~queued =
  Dsmsynch.exec t.stats_lock (fun () ->
      if t.global.done_ = 0 then 50
      else max 1 (queued * t.global.wall_us / t.global.done_ / 1000))

let shed_response t adm (req : Engine.request) =
  Metrics.submitted t.router_metrics;
  Metrics.shed t.router_metrics;
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

let await_drained t handle drained =
  Array.iter (fun w -> forward t handle w Drain) t.workers;
  let b = Backoff.create () in
  while !drained < t.domains do
    let before = !drained in
    poll t handle;
    if !drained = before then Backoff.once b else Backoff.reset b
  done

(* ---------- one-shot batch mode ---------- *)

let run_batch t ~lines =
  ensure_live t "Shard.run_batch";
  let clock = Clock.create () in
  let t0 = Clock.now_us clock in
  let items =
    List.mapi (fun i line -> (i, line)) lines
    |> List.filter (fun (_, line) -> String.trim line <> "")
  in
  let nslots = List.length items in
  let slots : Engine.response option array = Array.make nslots None in
  let rh_of_slot = Array.make nslots (-1) in
  let consumed_of_slot = Array.make nslots false in
  let orphans = ref [] in
  let adm = admission_create () in
  let drained = ref 0 in
  let handle = function
    | Row { slot; resp } ->
      if slot < 0 then orphans := resp :: !orphans
      else begin
        slots.(slot) <- Some resp;
        if rh_of_slot.(slot) >= 0 then
          settle adm ~no_cache:t.no_cache ~rh:rh_of_slot.(slot)
            ~consumed:consumed_of_slot.(slot) resp
      end
    | Drained -> incr drained
    | Stopped -> ()
  in
  List.iteri
    (fun slot (lineno, line) ->
      let default_id = string_of_int (lineno + 1) in
      (match Codec.request_of_line ~default_id line with
      | Error e ->
        slots.(slot) <-
          Some { Engine.id = default_id; client = "anon"; reply = Engine.Error e }
      | Ok req -> (
        let rh = Job.route_hash req.Engine.job in
        match admit adm ~no_cache:t.no_cache ~bound:t.queue_bound rh with
        | None -> slots.(slot) <- Some (shed_response t adm req)
        | Some consumed ->
          rh_of_slot.(slot) <- rh;
          consumed_of_slot.(slot) <- consumed;
          forward t handle t.workers.(shard_of_hash t rh) (Req { slot; req })));
      poll t handle)
    items;
  await_drained t handle drained;
  (* same conservation contract as Serve.run_batch: one row per slot in
     input order, orphans appended, nothing silently dropped *)
  let responses =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> Serve.unanswered_response ~id:"?")
         slots)
    @ List.rev !orphans
  in
  {
    Serve.responses;
    wall_s = float_of_int (Clock.elapsed_us clock ~since:t0) /. 1e6;
  }

(* ---------- streaming mode ---------- *)

(* While a forwarded request is unanswered and no input line is ready,
   the router polls the row rings between polls of the input: back to
   back for [spin_us] after the last answer arrived, which covers a hit's
   hop, then separated by a wait of up to [idle_wait_s] on the input,
   so a long computation costs a wake-up per wait instead of a busy
   core. *)
let spin_us = 200

let idle_wait_s = 0.0005

let serve ?max_requests ?duration_s t ic oc =
  ensure_live t "Shard.serve";
  Serve.stream ?max_requests ?duration_s
    (fun ~emit ->
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
          emit resp
        | Drained -> incr drained
        | Stopped -> ()
      in
      {
        Serve.accept =
          (fun ~lineno req ->
            let rh = Job.route_hash req.Engine.job in
            match admit adm ~no_cache:t.no_cache ~bound:t.queue_bound rh with
            | None -> emit (shed_response t adm req)
            | Some consumed ->
              Hashtbl.replace tracked lineno (rh, consumed);
              forward t handle t.workers.(shard_of_hash t rh) (Req { slot = lineno; req }));
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
        finish = (fun () -> await_drained t handle drained);
      })
    ic oc

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
        Domain.join w.domain)
      t.workers;
    Ticket_lock.with_lock t.merge_lock (fun () ->
        Metrics.merge_into ~dst:t.agg t.router_metrics);
    List.rev !stray
  end

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
  let engine = Engine.create ~cache_cap ~queue_bound () in
  let single = Serve.run_batch engine ~lines in
  let pool = create ~domains:n ~cache_cap ~queue_bound () in
  let sharded = run_batch pool ~lines in
  let stray = shutdown pool in
  let sharded_metrics = metrics pool in
  let identical =
    stray = []
    && List.length single.Serve.responses = List.length sharded.Serve.responses
    && List.for_all2
         (fun a b -> Serve.signature a = Serve.signature b)
         single.Serve.responses sharded.Serve.responses
  in
  let speedup =
    if sharded.Serve.wall_s > 0. then single.Serve.wall_s /. sharded.Serve.wall_s
    else 0.
  in
  {
    single;
    sharded;
    single_metrics = Engine.metrics engine;
    sharded_metrics;
    identical;
    coalesced = Metrics.get sharded_metrics "coalesced";
    speedup;
  }
