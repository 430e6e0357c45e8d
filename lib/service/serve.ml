module Rng = Armb_sim.Rng

let emitter oc =
  let b = Buffer.create 4096 in
  fun (r : Engine.response) ->
    Buffer.clear b;
    Json.to_buffer b (Codec.response_to_json r);
    Buffer.add_char b '\n';
    Buffer.output_buffer oc b

(* ---------- slot bookkeeping ---------- *)

(* Requests answered by a later drain are matched back to their input
   slot by id.  Ids are caller-chosen and may repeat, so each id keys a
   FIFO of slot indices; drain order within an id is submission order.
   An id's entry goes once its FIFO empties, so a long-lived map holds
   only the ids still waiting. *)
module Slot_map = struct
  type t = {
    waiting : (string, int Queue.t) Hashtbl.t;
    mutable expected : int;  (* slots still waiting for a response *)
  }

  let create () = { waiting = Hashtbl.create 64; expected = 0 }

  let expect t ~id ~slot =
    let q =
      match Hashtbl.find_opt t.waiting id with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.waiting id q;
        q
    in
    Queue.push slot q;
    t.expected <- t.expected + 1

  let resolve t ~id =
    match Hashtbl.find_opt t.waiting id with
    | Some q ->
      let slot = Queue.pop q in
      if Queue.is_empty q then Hashtbl.remove t.waiting id;
      t.expected <- t.expected - 1;
      Some slot
    | None -> None

  let pending t = t.expected

  let leftovers t =
    if t.expected = 0 then []
    else begin
      let left =
        Hashtbl.fold
          (fun id q acc -> Queue.fold (fun acc slot -> (id, slot) :: acc) acc q)
          t.waiting []
      in
      Hashtbl.reset t.waiting;
      t.expected <- 0;
      List.sort (fun (_, a) (_, b) -> compare a b) left
    end
end

let orphan_response (resp : Engine.response) =
  {
    resp with
    Engine.reply =
      Engine.Error
        (Printf.sprintf "orphaned response (no request slot waiting under id %S)"
           resp.Engine.id);
  }

let unanswered_response ~id =
  {
    Engine.id;
    client = "anon";
    reply = Engine.Error "request produced no response (engine dropped it)";
  }

(* ---------- backends ---------- *)

type backend = {
  accept : slot:int -> Engine.request -> unit;
  answer : idle:bool -> float;
  finish : unit -> unit;
}

type emit = slot:int -> Engine.response -> unit

(* The one loop around [Engine.submit] and [Engine.drain].  Every
   drained response goes to the slot waiting under its id; one nothing
   waits for is an orphan row (slot -1), and a slot still waiting after
   a drain, which runs to exhaustion, becomes an unanswered row — so
   every accepted request gets exactly one row.  [drain_every = max_int]
   is the batch policy: queued work waits for [finish], so duplicates
   keep coalescing. *)
let driver ?(drain_every = 16) engine ~(emit : emit) =
  let waiting = Slot_map.create () in
  let hold = drain_every = max_int in
  let drain () =
    List.iter
      (fun (resp : Engine.response) ->
        match Slot_map.resolve waiting ~id:resp.Engine.id with
        | Some slot -> emit ~slot resp
        | None -> emit ~slot:(-1) (orphan_response resp))
      (Engine.drain engine);
    List.iter
      (fun (id, slot) -> emit ~slot (unanswered_response ~id))
      (Slot_map.leftovers waiting)
  in
  {
    accept =
      (fun ~slot req ->
        match Engine.submit engine req with
        | Some resp -> emit ~slot resp
        | None -> Slot_map.expect waiting ~id:req.Engine.id ~slot);
    answer =
      (fun ~idle ->
        let n = Engine.pending engine in
        if n >= drain_every || (idle && n > 0 && not hold) then drain ();
        if hold || Engine.pending engine = 0 then infinity else 0.);
    finish = drain;
  }

(* Decode one input line for the backend; a line that does not decode
   is answered at once. *)
let accept_line b ~(emit : emit) ~slot ~default_id line =
  match Codec.request_of_line ~default_id line with
  | Error e -> emit ~slot { Engine.id = default_id; client = "anon"; reply = Engine.Error e }
  | Ok req -> b.accept ~slot req

(* ---------- streaming mode ---------- *)

(* One loop for every backend.  It reads a line only when one is ready
   while an answer is pending ([answer] returned 0), and otherwise
   blocks on input for as long as [answer] allows, capped by the time
   left before [duration_s].  Output is flushed before every blocking
   wait and after every idle step, not after every line.

   Shutdown drain semantics: whichever bound fires first (EOF,
   [max_requests] accepted request lines, or [duration_s] of wall
   clock), the loop stops *reading* but never stops *answering* — every
   request already accepted is answered before the stream closes, and
   unread input is simply left unread.  So a bounded serve is a prefix
   of the unbounded one: same responses, same order, truncated input. *)
let stream ?max_requests ?duration_s backend ic oc =
  let write = emitter oc in
  let emit ~slot:_ r = write r in
  let b = backend ~emit in
  let reader = Line_reader.create (Unix.descr_of_in_channel ic) in
  let clock = Clock.create () in
  let t0 = Clock.now_us clock in
  let time_left () =
    match duration_s with
    | Some d -> d -. (float_of_int (Clock.elapsed_us clock ~since:t0) /. 1e6)
    | None -> infinity
  in
  let full accepted = match max_requests with Some m -> accepted >= m | None -> false in
  let rec loop ~lineno ~accepted wait =
    let left = time_left () in
    if left > 0. && not (full accepted) then begin
      let timeout = Float.min wait left in
      if timeout > 0. then flush oc;
      match Line_reader.next reader ~timeout with
      | Line_reader.Eof -> ()
      | Line_reader.Idle ->
        let wait = b.answer ~idle:true in
        flush oc;
        loop ~lineno ~accepted wait
      | Line_reader.Line line when String.trim line = "" -> loop ~lineno:(lineno + 1) ~accepted wait
      | Line_reader.Line line ->
        let lineno = lineno + 1 in
        accept_line b ~emit ~slot:lineno ~default_id:(string_of_int lineno) line;
        loop ~lineno ~accepted:(accepted + 1) (b.answer ~idle:false)
    end
  in
  loop ~lineno:0 ~accepted:0 infinity;
  b.finish ();
  flush oc

let serve ?drain_every ?max_requests ?duration_s engine =
  stream ?max_requests ?duration_s (driver ?drain_every engine)

(* ---------- one-shot batch mode ---------- *)

type batch = { responses : Engine.response list; wall_s : float }

(* Slot [i] is the [i]th non-blank line; orphan rows go after the last
   slot, in the order they came. *)
let run_lines backend ~lines =
  let clock = Clock.create () in
  let t0 = Clock.now_us clock in
  let items =
    List.mapi (fun i line -> (i + 1, line)) lines
    |> List.filter (fun (_, line) -> String.trim line <> "")
  in
  let slots : Engine.response option array = Array.make (List.length items) None in
  let orphans = ref [] in
  let emit ~slot resp =
    if slot >= 0 then slots.(slot) <- Some resp else orphans := resp :: !orphans
  in
  let b = backend ~emit in
  List.iteri
    (fun slot (lineno, line) ->
      accept_line b ~emit ~slot ~default_id:(string_of_int lineno) line;
      ignore (b.answer ~idle:false : float))
    items;
  b.finish ();
  let responses =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> unanswered_response ~id:"?")
         slots)
    @ List.rev !orphans
  in
  { responses; wall_s = float_of_int (Clock.elapsed_us clock ~since:t0) /. 1e6 }

let run_batch engine ~lines = run_lines (driver ~drain_every:max_int engine) ~lines

(* ---------- engine or pool ---------- *)

type server = {
  backend : emit:emit -> backend;
  metrics : unit -> Metrics.t;
  stop : unit -> Engine.response list;
}

let of_engine ?drain_every engine =
  {
    backend = driver ?drain_every engine;
    metrics = (fun () -> Engine.metrics engine);
    stop = (fun () -> []);
  }

(* ---------- comparisons ---------- *)

type comparison = {
  cold : batch;
  warm : batch;
  cold_metrics : Metrics.t;
  warm_metrics : Metrics.t;
  identical : bool;
  speedup : float;
}

let signature (r : Engine.response) =
  match r.Engine.reply with
  | Engine.Result { result; _ } -> ("ok", result.Job.text)
  | Engine.Shed _ -> ("shed", "")
  | Engine.Error m -> ("error", m)

(* Each server is started, run and stopped before the next one starts,
   so neither's domains overlap the other's timed batch. *)
let compare_servers ~lines first second =
  let run start =
    let s = start () in
    let b = run_lines s.backend ~lines in
    let stray = s.stop () in
    (b, s.metrics (), stray = [])
  in
  let cold, cold_metrics, cold_clean = run first in
  let warm, warm_metrics, warm_clean = run second in
  let identical =
    cold_clean && warm_clean
    && List.length cold.responses = List.length warm.responses
    && List.for_all2
         (fun a b -> signature a = signature b)
         cold.responses warm.responses
  in
  let speedup = if warm.wall_s > 0. then cold.wall_s /. warm.wall_s else 0. in
  { cold; warm; cold_metrics; warm_metrics; identical; speedup }

let compare_cold ?(cache_cap = 512) ?queue_bound ~lines () =
  let queue_bound =
    match queue_bound with Some b -> b | None -> max 256 (List.length lines)
  in
  let server ?no_cache () =
    of_engine ~drain_every:max_int (Engine.create ~cache_cap ~queue_bound ?no_cache ())
  in
  compare_servers ~lines (server ~no_cache:true) server

(* ---------- deterministic demo batch ---------- *)

let demo_pool () =
  let tests = Armb_litmus.Catalogue.all in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let litmus =
    List.map
      (fun (t : Armb_litmus.Lang.test) ->
        [
          ("kind", Json.Str "litmus");
          ("test", Json.Str t.Armb_litmus.Lang.name);
          ("trials", Json.Int 20);
          ("seed", Json.Int 42);
        ])
      tests
  in
  let check =
    List.map
      (fun (t : Armb_litmus.Lang.test) ->
        [
          ("kind", Json.Str "check");
          ("test", Json.Str t.Armb_litmus.Lang.name);
          ("trials", Json.Int 8);
          ("seed", Json.Int 5);
        ])
      (take 8 tests)
  in
  let ring =
    List.map
      (fun (combo, messages) ->
        [
          ("kind", Json.Str "ring");
          ("combo", Json.Str combo);
          ("messages", Json.Int messages);
        ])
      [
        ("DMB full - DMB full", 300);
        ("DMB ld - DMB st", 300);
        ("LDAR - DMB st", 300);
        ("DMB ld - No Barrier", 300);
        ("DMB full - DMB st", 400);
        ("DMB full - STLR", 400);
      ]
  in
  let model =
    List.concat_map
      (fun approach ->
        List.map
          (fun nops ->
            [
              ("kind", Json.Str "model");
              ("mem_ops", Json.Str "st-st");
              ("approach", Json.Str approach);
              ("location", Json.Int 1);
              ("nops", Json.Int nops);
              ("iters", Json.Int 300);
            ])
          [ 100; 500 ])
      [ "none"; "dmb"; "dmb-st"; "stlr" ]
  in
  let fuzz =
    [
      [ ("kind", Json.Str "fuzz"); ("tests", Json.Int 3); ("trials", Json.Int 20); ("seed", Json.Int 7) ];
      [ ("kind", Json.Str "fuzz"); ("tests", Json.Int 5); ("trials", Json.Int 15); ("seed", Json.Int 9) ];
    ]
  in
  litmus @ check @ ring @ model @ fuzz

let demo_requests ?(pool = 40) ~requests ~seed () =
  let entries = Array.of_list (demo_pool ()) in
  let n = min pool (Array.length entries) in
  let rng = Rng.create seed in
  let clients = [| "alice"; "bob"; "carol" |] in
  List.init requests (fun i ->
      let fields = entries.(Rng.int rng n) in
      let client = clients.(Rng.int rng (Array.length clients)) in
      let priority =
        match Rng.int rng 8 with 0 -> "high" | 1 -> "low" | _ -> "normal"
      in
      Json.to_string
        (Json.Obj
           (("id", Json.Str (string_of_int (i + 1)))
           :: ("client", Json.Str client)
           :: ("priority", Json.Str priority)
           :: fields)))

(* ---------- zipfian traffic ---------- *)

(* Skewed production-shaped traffic: job popularity follows a Zipf law
   (rank r drawn with probability proportional to r^-alpha), so a few
   hot keys dominate exactly as real user traffic does, and clients
   are drawn from a wide pool so lane registration churns.  Fully
   deterministic in [seed]: the CI gate and the scaling experiments
   replay byte-identical batches. *)
let zipf_requests ?(pool = 40) ?(alpha = 1.1) ?(clients = 64) ~requests ~seed () =
  if requests < 0 then invalid_arg "Serve.zipf_requests: requests must be >= 0";
  if pool < 1 then invalid_arg "Serve.zipf_requests: pool must be >= 1";
  if alpha < 0.0 then invalid_arg "Serve.zipf_requests: alpha must be >= 0";
  if clients < 1 then invalid_arg "Serve.zipf_requests: clients must be >= 1";
  let entries = Array.of_list (demo_pool ()) in
  let n = min pool (Array.length entries) in
  let rng = Rng.create seed in
  (* rank -> cumulative weight, for inverse-CDF sampling *)
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) alpha);
    cum.(r) <- !total
  done;
  let sample_rank () =
    let u = Rng.float rng !total in
    (* first rank whose cumulative weight covers u *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)
  in
  List.init requests (fun i ->
      let fields = entries.(sample_rank ()) in
      let client = Printf.sprintf "user-%03d" (Rng.int rng clients) in
      let priority =
        match Rng.int rng 8 with 0 -> "high" | 1 -> "low" | _ -> "normal"
      in
      Json.to_string
        (Json.Obj
           (("id", Json.Str (string_of_int (i + 1)))
           :: ("client", Json.Str client)
           :: ("priority", Json.Str priority)
           :: fields)))

(* ---------- summary ---------- *)

let summary (b : batch) (m : Metrics.t) =
  let count f = List.length (List.filter f b.responses) in
  let by_origin o (r : Engine.response) =
    match r.Engine.reply with
    | Engine.Result { origin; _ } -> origin = o
    | _ -> false
  in
  let shed (r : Engine.response) =
    match r.Engine.reply with Engine.Shed _ -> true | _ -> false
  in
  let error (r : Engine.response) =
    match r.Engine.reply with Engine.Error _ -> true | _ -> false
  in
  let p50, p99 = Metrics.latency_us m in
  let bb = Buffer.create 512 in
  Buffer.add_string bb
    (Printf.sprintf "%-12s %6d   (%.3f s wall)\n" "requests"
       (List.length b.responses) b.wall_s);
  Buffer.add_string bb
    (Printf.sprintf "%-12s %6d\n" "computed" (count (by_origin Engine.Cold)));
  Buffer.add_string bb
    (Printf.sprintf "%-12s %6d\n" "cache hits" (count (by_origin Engine.Hit)));
  Buffer.add_string bb
    (Printf.sprintf "%-12s %6d\n" "coalesced" (count (by_origin Engine.Coalesced)));
  Buffer.add_string bb (Printf.sprintf "%-12s %6d\n" "shed" (count shed));
  Buffer.add_string bb (Printf.sprintf "%-12s %6d\n" "errors" (count error));
  Buffer.add_string bb
    (Printf.sprintf "%-12s %6.3f\n" "hit rate" (Metrics.hit_rate m));
  Buffer.add_string bb
    (Printf.sprintf "%-12s p50=%dus p99=%dus\n" "latency" p50 p99);
  Buffer.contents bb
