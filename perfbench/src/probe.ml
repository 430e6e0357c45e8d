(* Layer probes: closed-loop timings of each layer's public functions,
   called from the benchmark's own code on the run's own inputs.  They
   run after the measured phase, so they never disturb it. *)

module S = Armb_service
module Gen = Armb_soak.Gen
module Enumerate = Armb_litmus.Enumerate

let decode line =
  match S.Codec.request_of_line line with
  | Ok r -> r
  | Error m -> failwith ("probe: undecodable request: " ^ m)

let test_of (job : S.Job.t) =
  match job.S.Job.spec with
  | S.Job.Litmus t | S.Job.Check t -> Some t
  | S.Job.Fix { test; _ } | S.Job.Perturb { test; _ } -> Some test
  | S.Job.Model _ | S.Job.Ring _ | S.Job.Fuzz _ | S.Job.Opt _ -> None

(* Mean microseconds per call of [f] over [xs], repeating whole passes
   until at least [min_s] seconds have been timed. *)
let mean_us ?(min_s = 0.05) xs f =
  let total = ref 0. and calls = ref 0 in
  while !total < min_s || !calls = 0 do
    List.iter
      (fun x ->
        let t0 = Clock.now () in
        ignore (Sys.opaque_identity (f x));
        total := !total +. (Clock.now () -. t0);
        incr calls)
      xs
  done;
  !total /. float_of_int !calls *. 1e6

(* Front end: [lines] is a sample of the stream, so each figure is a
   per-request mean weighted as the traffic weights it. *)
let front ~lines =
  let reqs = List.map decode lines in
  let jobs = List.map (fun (r : S.Engine.request) -> r.S.Engine.job) reqs in
  (* one representative per canonical test: [Key.canonical_test] is
     itself the costly call, so make it once per job *)
  let distinct =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun j ->
        match test_of j with
        | None -> None
        | Some t ->
          let c = S.Key.canonical_test t in
          if Hashtbl.mem seen c then None
          else begin
            Hashtbl.add seen c ();
            Some t
          end)
      jobs
  in
  [
    Report.m "codec.decode_us" "us" (mean_us lines (fun l -> S.Codec.request_of_line l));
    Report.m "key.us" "us" (mean_us jobs S.Job.key);
    Report.m "key.enumerate_us" "us"
      (mean_us jobs (fun j ->
           match test_of j with Some t -> List.length (Enumerate.enumerate Enumerate.Wmm t) | None -> 0));
    Report.m "shard.route_hash_us" "us" (mean_us ~min_s:0.02 jobs S.Job.route_hash);
    Report.m "enumerate.us_per_test" "us"
      (if distinct = [] then nan else mean_us distinct (Enumerate.enumerate Enumerate.Wmm));
  ]

type run_sample = { job : Gen.job; text : string; ms : float }

(* Direct [Job.run] on each sampled job: the per-kind compute figures,
   and the reference texts served responses are compared against. *)
let direct (jobs : Gen.job list) =
  List.map
    (fun (j : Gen.job) ->
      let r, dt = Clock.time (fun () -> S.Job.run (decode j.Gen.line).S.Engine.job) in
      { job = j; text = r.S.Job.text; ms = dt *. 1000. })
    jobs

let kind_metrics samples =
  List.concat_map
    (fun k ->
      let ms = List.filter_map (fun s -> if s.job.Gen.kind = k then Some s.ms else None) samples in
      [
        Report.m ("run." ^ k ^ "_ms") "ms" (Stats.mean ms);
        Report.m ("run." ^ k ^ "_n") "count" (float_of_int (List.length ms));
      ])
    Report.kinds

(* [Engine.submit] and [Codec.response_to_line], mean per call, in a
   closed-loop pass through a fresh engine warmed as the workload warms
   its own.  [lines] go in in groups of the streaming loop's drain
   threshold, for at most [budget_s] seconds. *)
let stages ~warm ~lines ~budget_s =
  let e = S.Engine.create () in
  List.iter (fun lines -> ignore (S.Serve.run_batch e ~lines)) (Sut.chunks Sut.drain_every warm);
  let submit = ref [] and encode = ref [] in
  let encode_one r = encode := snd (Clock.time (fun () -> S.Codec.response_to_line r)) :: !encode in
  let t_end = Clock.now () +. budget_s in
  List.iter
    (fun group ->
      if Clock.now () < t_end then begin
        List.iter
          (fun line ->
            let req = decode line in
            let r, dt = Clock.time (fun () -> S.Engine.submit e req) in
            submit := dt :: !submit;
            Option.iter encode_one r)
          group;
        List.iter encode_one (S.Engine.drain e)
      end)
    (Sut.chunks Sut.drain_every lines);
  [
    Report.m "engine.submit_us" "us" (Stats.mean !submit *. 1e6);
    Report.m "codec.encode_us" "us" (Stats.mean !encode *. 1e6);
  ]

(* The shard hop: [Shard.run_batch] minus [Serve.run_batch] on the same
   warmed lines, per request (median of alternating passes). *)
let hop_us ~lines =
  let e = S.Engine.create () in
  let p = S.Shard.create ~domains:1 ~drain_every:Sut.drain_every () in
  Fun.protect
    ~finally:(fun () -> ignore (S.Shard.shutdown p))
    (fun () ->
      ignore (S.Serve.run_batch e ~lines);
      ignore (S.Shard.run_batch p ~lines);
      let single = ref [] and sharded = ref [] in
      for _ = 1 to 15 do
        single := snd (Clock.time (fun () -> S.Serve.run_batch e ~lines)) :: !single;
        sharded := snd (Clock.time (fun () -> S.Shard.run_batch p ~lines)) :: !sharded
      done;
      (Stats.get (Stats.median !sharded) -. Stats.get (Stats.median !single))
      /. float_of_int (List.length lines)
      *. 1e6)

(* [Machine.create] per platform, mean microseconds. *)
let machine_create_us () =
  mean_us Armb_platform.Platform.all (fun cfg -> Armb_cpu.Machine.create cfg)

(* Per-part figures over passes: host seconds per pass (median), and
   the exact simulated counts, which every pass must repeat. *)
let sim_metrics (passes : Sim_slice.timed list list) =
  List.concat_map
    (fun part ->
      let of_pass p = List.filter (fun (t : Sim_slice.timed) -> t.Sim_slice.unit_.Sim_slice.part = part) p in
      let host =
        List.map
          (fun p ->
            List.fold_left
              (fun a (t : Sim_slice.timed) -> a +. (t.Sim_slice.stop -. t.Sim_slice.start))
              0. (of_pass p))
          passes
      in
      let first = match passes with p :: _ -> of_pass p | [] -> [] in
      let sum f = List.fold_left (fun a (t : Sim_slice.timed) -> a + f t.Sim_slice.out) 0 first in
      let host_s = Stats.get (Stats.median host) and events = sum (fun o -> o.Sim_slice.events) in
      [
        Report.m ("sim." ^ part ^ ".host_s") "s" host_s;
        Report.m ("sim." ^ part ^ ".ns_per_event") "ns" (host_s /. float_of_int events *. 1e9);
        Report.m ("sim." ^ part ^ ".events") "count" (float_of_int events);
        Report.m ("sim." ^ part ^ ".cycles") "count" (float_of_int (sum (fun o -> o.Sim_slice.cycles)));
      ])
    Sim_slice.parts

(* Every service-layer probe on one request stream: [lines] is a sample
   of the stream, [warm] what the workload warms its cache with,
   [hop_lines] distinct requests for the shard hop, [direct] the
   workload's direct-run sample. *)
let service ~lines ~warm ~hop_lines ~direct =
  front ~lines
  @ stages ~warm ~lines ~budget_s:1.0
  @ [ Report.m "shard.hop_us" "us" (hop_us ~lines:hop_lines);
      Report.m "machine.create_us" "us" (machine_create_us ()) ]
  @ kind_metrics direct
