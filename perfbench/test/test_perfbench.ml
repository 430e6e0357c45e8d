(* Tests for the benchmark's own code: the input generators, the
   percentile rule, span self time, open-loop timing and metric
   selection. *)

open Perfbench

let check name cond = if not cond then failwith ("FAILED: " ^ name)

let lines jobs = Array.to_list (Array.map (fun (j : Armb_soak.Gen.job) -> j.Armb_soak.Gen.line) jobs)

(* ---------- generators ---------- *)

let test_generators () =
  let a = lines (Traffic.zipf ~seed:7 ~requests:300) in
  check "zipf: same seed, same bytes" (a = lines (Traffic.zipf ~seed:7 ~requests:300));
  check "zipf: another seed, another stream" (a <> lines (Traffic.zipf ~seed:8 ~requests:300));
  let c = lines (Traffic.uncached ~seed:7 ~requests:200 ~offset:0) in
  check "cold: same seed, same bytes" (c = lines (Traffic.uncached ~seed:7 ~requests:200 ~offset:0));
  let parts = List.sort_uniq compare (List.map Traffic.job_part c) in
  check "cold: no two requests share a job" (List.length parts = 200);
  let later = lines (Traffic.uncached ~seed:7 ~requests:50 ~offset:200) in
  check "cold: a later slice shares no job with the stream"
    (List.for_all (fun l -> not (List.mem (Traffic.job_part l) parts)) later);
  let pool = Traffic.pool (Traffic.zipf ~seed:7 ~requests:300) in
  let pool_parts = List.map (fun (j : Armb_soak.Gen.job) -> Traffic.job_part j.Armb_soak.Gen.line) pool in
  check "pool: distinct" (List.length (List.sort_uniq compare pool_parts) = List.length pool_parts);
  check "pool: covers the stream" (List.for_all (fun l -> List.mem (Traffic.job_part l) pool_parts) a);
  let full seed =
    List.sort compare
      (List.map
         (fun (j : Armb_soak.Gen.job) -> Traffic.job_part j.Armb_soak.Gen.line)
         (Traffic.pool (Traffic.zipf ~seed ~requests:Traffic.window_size)))
  in
  check "every seed serves the same pool" (full 7 = full 8 && List.length (full 7) = Armb_soak.Gen.default_pool)

(* A check job's verdict rests on its run seed, so every check entry
   must stay check-clean at every cold seed a cold stream can give it,
   and a 60 s cold run at the workload's rate must stay within them. *)
let test_cold_check_seeds () =
  let checks =
    List.filter
      (fun (j : Armb_soak.Gen.job) -> j.Armb_soak.Gen.kind = "check")
      (Traffic.pool (Traffic.zipf ~seed:0 ~requests:Traffic.window_size))
  in
  check "the pool has check jobs" (checks <> []);
  List.iter
    (fun (j : Armb_soak.Gen.job) ->
      for k = 0 to Traffic.check_seeds - 1 do
        let seed = Traffic.cold_seed + k in
        match Armb_service.Codec.request_of_line (Traffic.with_seed j.Armb_soak.Gen.line seed) with
        | Error m -> failwith m
        | Ok req ->
          let r = Armb_service.Job.run req.Armb_service.Engine.job in
          let v = Armb_soak.Invariant.check_text j.Armb_soak.Gen.expect r.Armb_service.Job.text in
          check (Printf.sprintf "%s at seed %d is check-clean" j.Armb_soak.Gen.id seed) v.Armb_soak.Invariant.ok
      done)
    checks;
  let requests = int_of_float (Serve_run.cold_rate *. 60.) in
  for seed = 0 to Traffic.windows - 1 do
    ignore (Traffic.uncached ~seed ~requests ~offset:0)
  done

(* ---------- percentiles ---------- *)

let test_percentiles () =
  let up n = List.init n (fun i -> float_of_int (i + 1)) in
  check "empty has no percentile" (Stats.percentile ~p:50. [] = None);
  check "one sample is every percentile"
    (List.for_all (fun p -> Stats.percentile ~p [ 4. ] = Some 4.) [ 0.; 50.; 99.; 100. ]);
  check "median of 3" (Stats.median [ 3.; 1.; 2. ] = Some 2.);
  check "median of 4 is the lower middle" (Stats.median (up 4) = Some 2.);
  check "p99 of 100" (Stats.percentile ~p:99. (up 100) = Some 99.);
  check "p99 of 1000 (no float round-up)" (Stats.percentile ~p:99. (up 1000) = Some 990.);
  check "p99 of 1001" (Stats.percentile ~p:99. (up 1001) = Some 991.);
  check "p100 is the max" (Stats.percentile ~p:100. (up 7) = Some 7.);
  check "p0 is the min" (Stats.percentile ~p:0. (up 7) = Some 1.);
  check "1000 samples leave 10 beyond p99" (Stats.beyond ~p:99. 1000 = 10);
  check "999 samples leave 9 beyond p99" (Stats.beyond ~p:99. 999 = 9);
  check "no samples, none beyond" (Stats.beyond ~p:99. 0 = 0);
  (* a burst confined to one window moves the windowed p99 not at all *)
  let burst = List.init 3000 (fun i -> if i >= 1000 && i < 1100 then 500. else float_of_int (i mod 100)) in
  check "windowed p99 ignores a one-window burst" (Stats.windowed ~p:99. ~windows:3 burst = Some 98.);
  check "windowed, one window = plain" (Stats.windowed ~p:99. ~windows:1 (up 1000) = Some 990.);
  check "windowed, remainder joins the last window"
    (Stats.windowed ~p:100. ~windows:2 (up 5) = Some 2.);
  check "windowed, empty" (Stats.windowed ~p:50. ~windows:4 [] = None);
  (* a slow stretch covering most windows leaves the lowest window's p50 alone *)
  let slow = List.init 400 (fun i -> if i < 100 then float_of_int (i mod 10) else 100. +. float_of_int i) in
  check "lowest window skips slow stretches" (Stats.lowest_window ~p:50. ~windows:4 slow = Some 4.);
  check "lowest window, one window = plain" (Stats.lowest_window ~p:50. ~windows:1 (up 9) = Some 5.);
  check "lowest window, more windows than samples" (Stats.lowest_window ~p:50. ~windows:10 (up 3) = Some 1.);
  check "lowest window, empty" (Stats.lowest_window ~p:50. ~windows:4 [] = None)

(* ---------- spans ---------- *)

let close a b = Float.abs (a -. b) < 1e-9

let test_spans () =
  let t = Span.create () in
  let root = Span.add t "request" ~start:0. ~stop:10. ~parent:(-1) in
  ignore (Span.add t "decode" ~start:1. ~stop:4. ~parent:root);
  let submit = Span.add t "submit" ~start:5. ~stop:9. ~parent:root in
  ignore (Span.add t "key" ~start:6. ~stop:7. ~parent:submit);
  ignore (Span.add t "request" ~start:20. ~stop:22. ~parent:(-1));
  let self = Span.self_times t in
  check "root self = 10 - 3 - 4" (close self.(root) 3.);
  check "leaf self = its span" (close self.(1) 3.);
  check "middle self = 4 - 1" (close self.(submit) 3.);
  check "grandchild" (close self.(3) 1.);
  let agg = List.assoc "request" (Span.aggregate t) in
  check "aggregate count" (agg.Span.count = 2);
  check "aggregate total" (close agg.Span.total_s 12.);
  check "aggregate self" (close agg.Span.self_s 5.);
  (* live spans nest by what is open *)
  let t = Span.create () in
  Span.with_ t "outer" (fun () -> Span.with_ t "inner" (fun () -> ()));
  let s = Span.spans t in
  check "inner's parent is outer" (s.(1).Span.parent = 0 && s.(0).Span.parent = -1);
  check "self <= total" (Array.for_all (fun x -> x >= 0.) (Span.self_times t))

(* ---------- open loop ---------- *)

(* A fake server that echoes each request's id and stalls for
   [stall_s] after request [stall_after].  Requests that fall due during
   the stall must be charged for it, and the driver must not be. *)
let fake_server ~stall_after ~stall_s req_r resp_w =
  let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
  let k = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr k;
       output_string oc line;
       output_char oc '\n';
       flush oc;
       if !k = stall_after then Unix.sleepf stall_s
     done
   with End_of_file -> ());
  flush oc;
  Unix._exit 0

let test_open_loop_stall () =
  let rate = 200. and n = 40 and stall_after = 10 and stall_s = 0.3 in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    fake_server ~stall_after ~stall_s req_r resp_w
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    let lines = Array.init n (fun i -> Printf.sprintf "%d" i) in
    let r = Open_loop.run ~rate ~lines ~req_fd:req_w ~resp_fd:resp_r ~deadline:(Clock.now () +. 30.) () in
    Unix.close resp_r;
    ignore (Unix.waitpid [] pid);
    check "no timeout" (not r.Open_loop.timed_out);
    check "every request answered" (List.length r.Open_loop.received = n);
    let latency =
      let a = Array.make n nan in
      List.iter (fun (t, l) -> let i = int_of_string l in a.(i) <- t -. r.Open_loop.due.(i)) r.Open_loop.received;
      a
    in
    for i = 0 to stall_after - 2 do
      check (Printf.sprintf "request %d before the stall is fast" i) (latency.(i) < 0.1)
    done;
    (* the stall ends about stall_s after request [stall_after - 1] was
       due; everything due before then waits for it *)
    for i = stall_after to n - 1 do
      let owed = stall_s -. (float_of_int (i - stall_after + 1) /. rate) in
      check (Printf.sprintf "request %d is charged for the stall" i) (latency.(i) >= owed -. 0.03)
    done;
    Array.iteri
      (fun i sent -> check (Printf.sprintf "request %d left on time" i) (sent -. r.Open_loop.due.(i) < 0.05))
      r.Open_loop.sent

(* ---------- metric selection ---------- *)

let test_select () =
  let fails f = match f () with _ -> false | exception Failure _ -> true in
  let a = Report.m "a" "ms" 1. and b = Report.m "b" "s" 2. in
  check "select picks in declared order"
    (Report.select [ ("b", "s"); ("a", "ms") ] [ a; b ] = [ b; a ]);
  check "a metric measured twice is refused" (fails (fun () -> Report.select [ ("a", "ms") ] [ a; a ]));
  check "a metric not measured is refused" (fails (fun () -> Report.select [ ("c", "ms") ] [ a ]));
  check "a unit mismatch is refused" (fails (fun () -> Report.select [ ("a", "s") ] [ a ]))

let () =
  test_generators ();
  test_cold_check_seeds ();
  test_select ();
  test_percentiles ();
  test_spans ();
  test_open_loop_stall ();
  print_endline "perfbench tests: ok"
