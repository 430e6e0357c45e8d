(* The serve workloads' driver: one thread, one open-loop stream, one
   process under test (Sut) on the other end of a pair of pipes. *)

module S = Armb_service
module Json = S.Json
module Gen = Armb_soak.Gen
module Invariant = Armb_soak.Invariant

let out_dir = "perfbench/out"

(* Set-up is timed this many times on each side of the measured phase,
   so the figure samples the host both before and after the run.  The
   driver generates the stream [setup_rounds] times before the run and
   as many times after it.  The process under test sets up once before
   serving and the other times after.  Each side reports the fastest of
   its samples: other work on a shared host only ever slows a set-up
   down, by up to several times, while the fastest sample moves little. *)
let setup_rounds = 4

(* ---------- the serve workloads ---------- *)

type serve = {
  mode : Sut.mode;
  cold : bool;
  rate : float;  (* requests per second of schedule *)
  limit_ms : float;  (* goodput counts answers within this latency *)
  p50_window : int;  (* requests per window of the p50 (see below) *)
}

let hot_rate = 2000.

let cold_rate = 100.

(* The p50 is the lowest of the p50s of consecutive windows of
   [p50_window] requests.  On a shared host, other work slows stretches
   of a run down, and a p50 taken over the whole run moves with the
   share of slow stretches in it; the least disturbed window does not.
   A cold window is 10 s long: its p50 has to average over many drains
   of 16 requests, whose cost depends on which jobs met in them. *)
let serve_workloads =
  [
    ("serve-hot", { mode = Sut.Single; cold = false; rate = hot_rate; limit_ms = 50.; p50_window = 100 });
    ("serve-cold", { mode = Sut.Single; cold = true; rate = cold_rate; limit_ms = 1000.; p50_window = 1000 });
    ("serve-sharded", { mode = Sut.Sharded; cold = false; rate = hot_rate; limit_ms = 50.; p50_window = 100 });
  ]

(* The tail percentiles are medians over consecutive windows of this
   many requests.  Short windows make the median robust to the
   millisecond stalls a shared host inflicts on a sub-millisecond tail;
   1000 requests keep 10 samples beyond each window's p99. *)
let window_requests = 1000

let stream w ~seed ~requests =
  if w.cold then Traffic.uncached ~seed ~requests ~offset:0 else Traffic.zipf ~seed ~requests

type answer = {
  recv : float;
  status : string;
  origin : string;
  wall_us : int;
  result : string;
}

let parse_answer (recv, line) =
  match Json.of_string line with
  | Error _ -> None
  | Ok j -> (
    match Json.mem_str "id" j with
    | None -> None
    | Some id ->
      let s k = Option.value ~default:"" (Json.mem_str k j) in
      Some
        ( id,
          {
            recv;
            status = s "status";
            origin = s "origin";
            wall_us = Option.value ~default:0 (Json.mem_int "wall_us" j);
            result = s "result";
          } ))

let stats_of_lines lines =
  List.find_map
    (fun (_, l) ->
      match Json.of_string l with Ok j -> Json.member "perfbench_stats" j | Error _ -> None)
    lines

let num j k = Option.value ~default:nan (Option.bind (Json.member k j) Json.number)

let nums j k =
  match Option.bind (Json.member k j) Json.list with
  | Some l -> List.filter_map Json.number l
  | None -> []

(* Read one line from a raw descriptor without buffering past it. *)
let read_line_fd fd ~deadline =
  let b = Buffer.create 64 and c = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Clock.now () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd c 0 1 with
        | 0 -> None
        | _ when Bytes.get c 0 = '\n' -> Some (Buffer.contents b)
        | _ ->
          Buffer.add_char b (Bytes.get c 0);
          go ())
  in
  go ()

let rec waitpid pid = try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let spawn_sut args =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: "sut" :: args)) req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  (pid, req_w, resp_r)

let run_serve name w ~seed ~seconds ~trace ~emit =
  let n = max 1 (int_of_float (w.rate *. float_of_int seconds)) in
  let time_generator () = snd (Clock.time (fun () -> stream w ~seed ~requests:n)) in
  let gen_before = List.init setup_rounds (fun _ -> time_generator ()) in
  let jobs = stream w ~seed ~requests:n in
  let lines = Array.map (fun (j : Gen.job) -> j.Gen.line) jobs in
  Option.iter (fun f -> Traffic.write_ndjson f (Array.to_list lines)) emit;
  let pool = Traffic.pool jobs in
  let warm = if w.cold then [] else List.map (fun (j : Gen.job) -> j.Gen.line) pool in
  let file kind = Printf.sprintf "%s/%s-%d-%s.ndjson" out_dir name seed kind in
  Traffic.write_ndjson (file "warm") warm;
  let trace_from = if trace then n / 2 else -1 in
  let pid, req_w, resp_r =
    spawn_sut
      ([
         "--mode";
         (match w.mode with Sut.Single -> "single" | Sut.Sharded -> "sharded");
         "--warm";
         file "warm";
         "--setups";
         string_of_int (2 * setup_rounds);
         "--trace-from";
         string_of_int trace_from;
       ]
      @ if trace && w.mode = Sut.Single then [ "--spans"; file "sut-spans" ] else [])
  in
  let deadline = Clock.now () +. 60. in
  let ready = read_line_fd resp_r ~deadline in
  if ready = None then begin
    Unix.kill pid Sys.sigkill;
    ignore (waitpid pid);
    failwith "process under test did not become ready"
  end;
  let driver_tracer = if trace then Some (Span.create ()) else None in
  let ol =
    Open_loop.run ?tracer:driver_tracer ~trace_from:(n / 2) ~rate:w.rate ~lines ~req_fd:req_w ~resp_fd:resp_r
      ~deadline:(Clock.now () +. float_of_int seconds +. 100.)
      ()
  in
  if ol.Open_loop.timed_out then Unix.kill pid Sys.sigkill;
  Unix.close resp_r;
  let status = waitpid pid in
  let sut_ok = status = Unix.WEXITED 0 && not ol.Open_loop.timed_out in
  let gen_s = gen_before @ List.init setup_rounds (fun _ -> time_generator ()) in
  let stats = match stats_of_lines ol.Open_loop.received with Some s -> s | None -> Json.Obj [] in
  (* match every answer to its request *)
  let index = Hashtbl.create n in
  Array.iteri (fun i (j : Gen.job) -> Hashtbl.replace index j.Gen.id i) jobs;
  let answers = Array.make n None in
  let stray = ref 0 in
  List.iter
    (fun rl ->
      match parse_answer rl with
      | Some (id, a) -> (
        match Hashtbl.find_opt index id with
        | Some i when answers.(i) = None -> answers.(i) <- Some a
        | _ -> incr stray)
      | None -> ())
    ol.Open_loop.received;
  (* correctness: every request answered ok and passing its invariant *)
  let verdict i =
    match answers.(i) with
    | None -> Error "unanswered"
    | Some a when a.status <> "ok" -> Error ("status " ^ a.status)
    | Some a ->
      let v = Invariant.check_text jobs.(i).Gen.expect a.result in
      if v.Invariant.ok then Ok a else Error (Option.value ~default:"invariant" v.Invariant.reason)
  in
  let verdicts = Array.init n verdict in
  let failures = Array.fold_left (fun acc v -> match v with Error _ -> acc + 1 | Ok _ -> acc) 0 verdicts in
  Array.iteri
    (fun i v ->
      match v with
      | Error why when i < 5 || failures < 20 -> Printf.printf "FAILED %s: %s\n" jobs.(i).Gen.id why
      | _ -> ())
    verdicts;
  (* a fixed sample against a direct Job.run: the first request of each
     pool entry on warm traffic, the first three of each kind on cold *)
  let sample =
    if w.cold then
      List.concat_map
        (fun k ->
          Array.to_list jobs
          |> List.filter (fun (j : Gen.job) -> j.Gen.kind = k)
          |> List.filteri (fun i _ -> i < 3))
        Report.kinds
    else pool
  in
  let direct = Probe.direct sample in
  let mismatches =
    List.filter
      (fun (d : Probe.run_sample) ->
        match answers.(Hashtbl.find index d.Probe.job.Gen.id) with
        | Some a -> a.result <> d.Probe.text
        | None -> true)
      direct
  in
  List.iter
    (fun (d : Probe.run_sample) -> Printf.printf "MISMATCH vs direct Job.run: %s\n" d.Probe.job.Gen.id)
    mismatches;
  (* latencies, from each request's due time *)
  let lat i = match answers.(i) with Some a -> Some (a.recv -. ol.Open_loop.due.(i)) | None -> None in
  let lat_range lo hi = List.filter_map lat (List.init (hi - lo) (fun k -> lo + k)) in
  let measured = if trace then lat_range 0 (n / 2) else lat_range 0 n in
  let p q xs = Stats.get (Stats.percentile ~p:q xs) *. 1000. in
  (* windows of at least 1000 requests, so each window's p99 still
     summarises at least 10 samples *)
  let windows = max 1 (List.length measured / window_requests) in
  let wp q xs = Stats.get (Stats.windowed ~p:q ~windows xs) *. 1000. in
  let p50_windows = max 1 (List.length measured / w.p50_window) in
  let ok_answers = Array.to_list verdicts |> List.filter_map (function Ok a -> Some a | Error _ -> None) in
  let origins o = List.length (List.filter (fun a -> a.origin = o) ok_answers) in
  let hits = origins "hit" and colds = origins "cold" and coal = origins "coalesced" in
  let hit_ratio = float hits /. float (max 1 (hits + colds + coal)) in
  let hit_ok = w.cold || hit_ratio = 1.0 in
  if not hit_ok then Printf.printf "FAILED warm-up coverage: hit ratio %.6f on warmed traffic\n" hit_ratio;
  let last_recv = List.fold_left (fun acc a -> Float.max acc a.recv) ol.Open_loop.t0 ok_answers in
  let within i = match lat i with Some l -> l *. 1000. <= w.limit_ms | None -> false in
  let good =
    List.length
      (List.filteri
         (fun i v -> match v with Ok _ -> within i | Error _ -> false)
         (Array.to_list verdicts))
  in
  let late = Array.to_list (Array.mapi (fun i s -> s -. ol.Open_loop.due.(i)) ol.Open_loop.sent) in
  let fastest = List.fold_left Float.min infinity in
  let setup_s = fastest gen_s +. fastest (nums stats "setup_s") in
  let correct = sut_ok && failures = 0 && mismatches = [] && !stray = 0 && hit_ok in
  let failed = failures + List.length mismatches + !stray + if hit_ok then 0 else 1 in
  let e2e =
    [
      Report.m "latency_p50_ms" "ms"
        (Stats.get (Stats.lowest_window ~p:50. ~windows:p50_windows measured) *. 1000.);
      Report.m "latency_p90_ms" "ms" (wp 90. measured);
      Report.m "latency_p99_ms" "ms" (wp 99. measured);
      Report.m "goodput_rps" "req/s" (float good /. (last_recv -. ol.Open_loop.t0));
      Report.m "setup_s" "s" setup_s;
      Report.m "peak_rss_mb" "MiB" (num stats "vmhwm_kb" /. 1024.);
    ]
  in
  let nm = List.length measured in
  let late = List.map (fun l -> l *. 1000.) late in
  Printf.printf "driver lateness (ms): p50 %.3g p99 %.3g max %.3g\n"
    (Stats.get (Stats.median late)) (Stats.get (Stats.percentile ~p:99. late)) (List.fold_left Float.max 0. late);
  Report.print_table (name ^ " end to end")
    (List.map
       (fun (x : Report.metric) ->
         ( x,
           match x.Report.name with
           | "latency_p50_ms" ->
             Printf.sprintf "lowest of %d windows of %d requests; n=%d" p50_windows w.p50_window nm
           | "latency_p90_ms" | "latency_p99_ms" ->
             Printf.sprintf "median over %d windows; n=%d, %d beyond p99 per window" windows nm
               (Stats.beyond ~p:99. (nm / windows))
           | "goodput_rps" -> Printf.sprintf "%d of %d within %.0f ms" good n w.limit_ms
           | "setup_s" ->
             let l xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
             Printf.sprintf "generator [%s] + server [%s]" (l gen_s) (l (nums stats "setup_s"))
           | _ -> "" ))
       e2e
    @ [
        ( Report.m "failed_ratio" "ratio" (float failed /. float n),
          Printf.sprintf "%d failed of %d requests" failed n );
      ]);
  (* a traced run also checks the simulator slice it measures *)
  let sim_checked = ref 0 and sim_failed = ref [] in
  let layers =
    if not trace then []
    else begin
      let traced = lat_range (n / 2) n in
      let counts = Option.value ~default:(Json.Obj []) (Json.member "counts" stats) in
      let answered = List.filter_map Fun.id (Array.to_list answers) in
      let with_status st = float (List.length (List.filter (fun a -> a.status = st) answered)) in
      let waits =
        List.filter_map
          (fun i ->
            match (answers.(i), lat i) with
            | Some a, Some l -> Some (l -. (float a.wall_us *. 1e-6))
            | _ -> None)
          (List.init n Fun.id)
      in
      let sample_lines = Array.to_list (Array.sub lines 0 (min n 2000)) in
      let own =
        [
          Report.m "engine.hit_ratio" "ratio" hit_ratio;
          Report.m "shard.router_shed" "count" (if w.mode = Sut.Sharded then num counts "shed" else 0.);
          Report.m "engine.compute_p50_us" "us" (num stats "compute_p50_us");
          Report.m "engine.compute_p99_us" "us" (num stats "compute_p99_us");
          Report.m "engine.wait_p50_ms" "ms" (Stats.get (Stats.median waits) *. 1000.);
          Report.m "engine.queue_depth_peak" "count" (num counts "queue_depth_peak");
          Report.m "engine.completed" "count" (float colds);
          Report.m "engine.shed" "count" (with_status "shed");
          Report.m "engine.errors" "count" (with_status "error");
          Report.m "gc.minor_mwords" "Mwords" (num stats "minor_words" /. 1e6);
          Report.m "gc.major_collections" "count" (num stats "major_collections");
          Report.m "driver.late_ms_max" "ms" (List.fold_left Float.max 0. late);
          Report.m "driver.late_ms_p99" "ms" (Stats.get (Stats.percentile ~p:99. late));
          (* the traced half against the untraced half of this run: the
             driver traces its send and receive path, and the single
             engine also traces its loop (the shard pool cannot be
             traced from outside) *)
          Report.m "trace.overhead_ratio" "ratio" (p 50. traced /. p 50. measured);
        ]
      in
      Printf.printf "engine.hit_ratio base: %d hits of %d lookups (%d cold, %d coalesced)\n" hits
        (hits + colds + coal) colds coal;
      let hop_lines = if w.cold then List.filteri (fun i _ -> i < Gen.default_pool) sample_lines else warm in
      let probe = Probe.service ~lines:sample_lines ~warm ~hop_lines ~direct in
      let units = Sim_slice.build () in
      let passes = [ Sim_slice.run_pass units; Sim_slice.run_pass units ] in
      sim_checked := List.length units * List.length passes;
      sim_failed := Sim_slice.failures passes;
      List.iter (fun why -> Printf.printf "FAILED simulator slice %s\n" why) !sim_failed;
      own @ probe @ Probe.sim_metrics passes
    end
  in
  let print_spans title rows =
    Printf.printf "== %s spans %s ==\n" name title;
    List.iter
      (fun (k, count, self_s) ->
        Printf.printf "  %-16s n=%-7.0f self %.3f us/span\n" k count (self_s /. count *. 1e6))
      rows
  in
  (* the driver's spans, and each request's latency as a span beside them *)
  Option.iter
    (fun tr ->
      Array.iteri
        (fun i due ->
          match answers.(i) with
          | Some a -> Span.record ~req:i tr "request" ~start:due ~stop:a.recv
          | None -> ())
        ol.Open_loop.due;
      Span.write_ndjson tr (file "driver-spans");
      print_spans "in the driver"
        (List.map
           (fun (k, (a : Span.agg)) -> (k, float a.Span.count, a.Span.self_s))
           (Span.aggregate tr)))
    driver_tracer;
  (match Json.member "spans" stats with
  | Some (Json.Obj spans) when spans <> [] ->
    print_spans "in the process under test (traced half)"
      (List.map (fun (k, v) -> (k, num v "count", num v "self_s")) spans)
  | _ -> ());
  let sim_failed = List.length !sim_failed in
  {
    Report.measured = (if trace then layers else e2e);
    correct = correct && sim_failed = 0;
    attempted = n + !sim_checked;
    failed = failed + sim_failed;
  }
