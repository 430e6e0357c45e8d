(* The process under test for the serve workloads.  It sets up an
   engine (or a one-worker shard pool), answers the driver's NDJSON
   stream on stdin/stdout with the same loop [armb serve] runs, and,
   once the driver closes its input, times more set-ups and reports its
   own figures as a final JSON line.  Set-up and serving run on at most
   two domains: the main one and, in sharded mode, one shard worker. *)

module S = Armb_service
module Json = S.Json

type mode = Single | Sharded

type server = Engine of S.Engine.t | Pool of S.Shard.t

let drain_every = 16

(* Warm in chunks of [drain_every] lines, as the streaming loop would
   have filled the cache, so the warm-up never queues deeper than the
   timed traffic does. *)
let rec chunks n = function
  | [] -> []
  | l ->
    let a = List.filteri (fun i _ -> i < n) l and b = List.filteri (fun i _ -> i >= n) l in
    a :: chunks n b

let setup mode ~warm =
  match mode with
  | Single ->
    let e = S.Engine.create () in
    List.iter (fun lines -> ignore (S.Serve.run_batch e ~lines)) (chunks drain_every warm);
    Engine e
  | Sharded ->
    let p = S.Shard.create ~domains:1 ~drain_every () in
    List.iter (fun lines -> ignore (S.Shard.run_batch p ~lines)) (chunks drain_every warm);
    Pool p

(* [Serve.serve] with a span around each request from line
   [trace_from] on, and one around each drain.  Same reading, draining
   and flushing as the untraced loop, so the traced half of a run
   serves the same way.  Per-stage costs come from the probes, not from
   here: the sharded loop cannot be traced from outside, and each figure
   has one source. *)
let traced_serve ~tracer ~trace_from engine ic oc =
  let emit (r : S.Engine.response) =
    output_string oc (S.Codec.response_to_line r);
    output_char oc '\n'
  in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         let tr = if !lineno > trace_from then Some tracer else None in
         let default_id = string_of_int !lineno in
         Span.wrap ~req:!lineno tr "request" (fun () ->
             match S.Codec.request_of_line ~default_id line with
             | Error e -> emit { S.Engine.id = default_id; client = "anon"; reply = S.Engine.Error e }
             | Ok req -> Option.iter emit (S.Engine.submit engine req));
         flush oc;
         if S.Engine.pending engine >= drain_every then begin
           Span.wrap tr "engine.drain" (fun () -> List.iter emit (S.Engine.drain engine));
           flush oc
         end
       end
     done
   with End_of_file -> ());
  List.iter emit (S.Engine.drain engine);
  flush oc

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> go ()
      | exception End_of_file -> 0
    in
    let kb = go () in
    close_in ic;
    kb

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

let main ~mode ~warm_file ~setups ~trace_from ~spans_file =
  let warm = match warm_file with Some f -> Traffic.read_ndjson f | None -> [] in
  let setup_s = ref [] in
  let timed_setup () =
    let s, dt = Clock.time (fun () -> setup mode ~warm) in
    setup_s := dt :: !setup_s;
    s
  in
  let retire = function Pool p -> ignore (S.Shard.shutdown p) | Engine _ -> () in
  let server = timed_setup () in
  print_endline (Json.to_string (Json.Obj [ ("perfbench_ready", Json.Bool true) ]));
  let tracer = Span.create () in
  let gc0 = Gc.quick_stat () in
  (match server with
  | Engine e when trace_from >= 0 -> traced_serve ~tracer ~trace_from e stdin stdout
  | Engine e -> S.Serve.serve ~drain_every e stdin stdout
  | Pool p -> S.Shard.serve p stdin stdout);
  let gc1 = Gc.quick_stat () in
  (* a pool's engine figures only exist once it has shut down *)
  let metrics =
    match server with
    | Engine e -> S.Engine.metrics e
    | Pool p ->
      ignore (S.Shard.shutdown p);
      S.Shard.metrics p
  in
  let p50, p99 = S.Metrics.latency_us metrics in
  let counts = S.Metrics.counts metrics in
  (* The other set-ups are timed once serving is over and peak memory
     has been read: set-ups done before serving would each leave memory
     behind, and raised the peak by about 1.6 MiB, with more spread, on
     the shard pool.  A real server sets up once. *)
  let vmhwm_kb = vmhwm_kb () in
  for _ = 2 to setups do
    retire (timed_setup ())
  done;
  Option.iter (Span.write_ndjson tracer) spans_file;
  let spans =
    List.map
      (fun (name, (a : Span.agg)) ->
        ( name,
          Json.Obj
            [ ("count", Json.Int a.Span.count); ("total_s", Json.Float a.Span.total_s);
              ("self_s", Json.Float a.Span.self_s) ] ))
      (Span.aggregate tracer)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "perfbench_stats",
              Json.Obj
                [
                  ("setup_s", floats (List.rev !setup_s));
                  ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counts));
                  ("compute_p50_us", Json.Int p50);
                  ("compute_p99_us", Json.Int p99);
                  ("vmhwm_kb", Json.Int vmhwm_kb);
                  ("minor_words", Json.Float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
                  ("major_collections", Json.Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
                  ("spans", Json.Obj spans);
                ] );
          ]))
