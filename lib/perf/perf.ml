module AM = Armb_core.Abstracted_model
module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Event_queue = Armb_sim.Event_queue
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering
module P = Armb_platform.Platform

type sample = {
  name : string;
  events : int;
  wall_s : float;
  events_per_sec : float;
}

type results = { mode : string; fault : string; samples : sample list }

(* ---------- workloads ---------- *)

(* A slice of the Figure 3 store-store sweep: the abstracted model over
   the order-preserving approaches and NOP counts that dominate the
   figure, on both NUMA placements of the kunpeng916 model.  This is
   the per-op hot path: loads, stores, barriers, compute batches. *)
let fig3_slice ~iters ~nop_counts () =
  let kunpeng = P.kunpeng916 in
  let cross = Armb_mem.Topology.num_cores kunpeng.Armb_cpu.Config.topo / 2 in
  let placements = [ (0, 4); (0, cross) ] in
  let approaches =
    [
      (Ordering.No_barrier, AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc2);
      (Ordering.Bar (Barrier.Dmb St), AM.Loc1);
      (Ordering.Stlr_release, AM.Loc1);
    ]
  in
  let events = ref 0 in
  List.iter
    (fun cores ->
      List.iter
        (fun (approach, location) ->
          List.iter
            (fun nops ->
              let spec =
                { (AM.default_spec kunpeng) with cores; approach; location; nops; iters }
              in
              let _cycles, ev = AM.run_stats spec in
              events := !events + ev)
            nop_counts)
        approaches)
    placements;
  !events

(* The whole litmus catalogue on the timing simulator: many short
   machines, so per-trial setup cost (allocating the memory system and
   event queue) weighs as much as the per-op path. *)
let litmus_catalogue ?fault ~trials () =
  List.fold_left
    (fun acc t ->
      let r = Armb_litmus.Sim_runner.run ?fault ~trials ~seed:42 t in
      acc + r.Armb_litmus.Sim_runner.events)
    0 Armb_litmus.Catalogue.all

(* The Figure 6(a) SPSC ring with the best-legal barrier combination
   (DMB ld - DMB st): spin loops, line watches and cross-core line
   bouncing — the event queue's wakeup machinery. *)
let fig6a_ring ?fault ~messages () =
  let cfg = P.kunpeng916 in
  let cross = Armb_mem.Topology.num_cores cfg.Armb_cpu.Config.topo / 2 in
  let m = Machine.create ?fault cfg in
  let prod_cnt = Machine.alloc_line m in
  let cons_cnt = Machine.alloc_line m in
  let slots = 16 in
  let buf = Machine.alloc_lines m slots in
  Machine.spawn m ~core:0 (fun c ->
      for i = 0 to messages - 1 do
        let avail v = Int64.to_int v > i - slots in
        let cv = Core.await c (Core.load c cons_cnt) in
        if not (avail cv) then ignore (Core.spin_until c cons_cnt avail);
        Core.barrier c (Barrier.Dmb Ld);
        Core.compute c 60;
        Core.store c (buf + (i mod slots * 64)) (Int64.of_int i);
        Core.barrier c (Barrier.Dmb St);
        Core.store c prod_cnt (Int64.of_int (i + 1))
      done);
  Machine.spawn m ~core:cross (fun c ->
      for i = 0 to messages - 1 do
        ignore (Core.spin_until c prod_cnt (fun v -> Int64.to_int v > i));
        Core.barrier c (Barrier.Dmb Ld);
        ignore (Core.await c (Core.load c (buf + (i mod slots * 64))));
        Core.compute c 10;
        Core.store c cons_cnt (Int64.of_int (i + 1))
      done);
  Machine.run_exn m;
  Event_queue.processed (Machine.queue m)

(* One differential fuzz round: random litmus tests checked against the
   operational model — simulator trials interleaved with enumeration. *)
let fuzz_round ?fault ~tests ~trials_per_test () =
  let r = Armb_litmus.Fuzz.run ?fault ~tests ~trials_per_test ~seed:1234 () in
  r.Armb_litmus.Fuzz.events

(* The job service over a duplicate-heavy demo batch.  serve-cold
   measures the engine's queue/key/execute overhead with memoization
   off; serve-warm serves the same batch out of a populated memo cache.
   Events count what each ok response *serves* (a cache hit credits its
   computation's events), so the warm number reflects cache throughput.
   Like fig3-slice these stay clean under a fault plan: demo requests
   carry fault intensity 0. *)
module Service = Armb_service

(* A workload builds its state when it is about to be measured, outside
   the timed region, and returns the run to time and what releases the
   state once the measurement is over. *)
type workload = unit -> (unit -> int) * (unit -> unit)

let stateless f : workload = fun () -> (f, ignore)

let served (b : Service.Serve.batch) =
  List.fold_left
    (fun acc (r : Service.Engine.response) ->
      match r.Service.Engine.reply with
      | Service.Engine.Result { result; _ } -> acc + result.Service.Job.events
      | _ -> acc)
    0 b.Service.Serve.responses

let demo requests = Service.Serve.demo_requests ~requests ~seed:11 ()

let serve_cold ~requests () =
  let engine = Service.Engine.create ~no_cache:true ~queue_bound:(max 256 requests) () in
  served (Service.Serve.run_batch engine ~lines:(demo requests))

(* Only cache service is timed: the populating pass is set-up. *)
let serve_warm lines : workload =
 fun () ->
  let engine = Service.Engine.create ~queue_bound:(max 256 (List.length lines)) () in
  ignore (Service.Serve.run_batch engine ~lines : Service.Serve.batch);
  ((fun () -> served (Service.Serve.run_batch engine ~lines)), ignore)

(* The sharded service over the Zipf-skewed batch: serve-zipf-warm is
   the single-domain baseline on the same traffic the shard pool gets,
   so the sharded/single ratio isolates the domain layer from the
   traffic shape.  serve-sharded-cold includes pool spawn + shutdown
   (the deployment cost); serve-sharded-warm times a batch against
   already-warm shard caches, with pool construction and the warming
   pass as set-up, and shuts the pool down before the next workload.
   On hosts with fewer cores than domains these measure time-slicing
   overhead, not scaling — the scaling table in EXPERIMENTS.md records
   both. *)
let zipf requests = Service.Serve.zipf_requests ~requests ~seed:11 ()

let serve_sharded_cold ~domains ~requests () =
  let pool = Service.Shard.create ~domains ~queue_bound:(max 256 requests) () in
  let events = served (Service.Shard.run_batch pool ~lines:(zipf requests)) in
  ignore (Service.Shard.shutdown pool : Service.Engine.response list);
  events

let serve_sharded_warm ~domains ~requests : workload =
 fun () ->
  let lines = zipf requests in
  let pool = Service.Shard.create ~domains ~queue_bound:(max 256 requests) () in
  ignore (Service.Shard.run_batch pool ~lines : Service.Serve.batch);
  ( (fun () -> served (Service.Shard.run_batch pool ~lines)),
    fun () -> ignore (Service.Shard.shutdown pool : Service.Engine.response list) )

(* The many-core scalability workloads: a 256-core manycore machine
   running barrier episodes.  many-core-central hammers one fetch-add
   line with a 256-wide release fan-out — the widest sharer sets and
   deepest same-timestamp event bursts the kernel produces;
   many-core-tree spreads arrivals over a combining tree, so the event
   mix shifts from one hot line to many lukewarm ones.  Both are pure
   simulator workloads (no fault hook: a barrier that loses a wakeup
   deadlocks rather than measuring anything). *)
let many_core ~kind ~cores ~episodes ~work () =
  let spec =
    {
      Armb_sync.Sync_barrier.cfg = P.manycore ~cores;
      kind;
      cores = List.init cores Fun.id;
      episodes;
      work;
    }
  in
  (Armb_sync.Sync_barrier.run spec).Armb_sync.Sync_barrier.events

(* ---------- harness ---------- *)

(* Every workload runs in each of [rounds] passes over the whole list,
   building and releasing its state each time; a pass times runs until
   they took [round_s] (at least one run), and the first pass is a
   warm-up whose runs are dropped.  The sample is the median of all
   timed runs.  On a shared host the speed of the same code moves by a
   quarter within seconds, so runs spread over the whole measurement
   keep one slow moment from setting a workload's number. *)
let rounds = 5

let round_s = 0.1

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One pass of [w]: (events, wall seconds) per run. *)
let time_round (w : workload) =
  let run, release = w () in
  Fun.protect ~finally:release (fun () ->
      let clock = Service.Clock.create () in
      let rec go spent acc =
        let t0 = Service.Clock.now_us clock in
        let events = run () in
        let wall = float_of_int (Service.Clock.elapsed_us clock ~since:t0) /. 1e6 in
        let acc = (events, wall) :: acc in
        if spent +. wall >= round_s then acc else go (spent +. wall) acc
      in
      go 0. [])

let run ?(quick = false) ?fault ?only ?(progress = fun _ -> ()) () =
  (* Record whether a fault plan perturbed the measurement: a perturbed
     number must never be confused with a clean baseline.  The null plan
     counts as faults-off (the machine drops it at creation anyway).
     fig3-slice runs on the analytic abstracted model, outside the
     machine and hence outside the injector's reach — it stays clean
     even under a plan. *)
  let fault =
    match fault with
    | Some (sp : Armb_fault.Plan.spec) when not (Armb_fault.Plan.is_null sp) -> Some sp
    | Some _ | None -> None
  in
  let fault_name = match fault with Some sp -> sp.Armb_fault.Plan.name | None -> "none" in
  let workloads =
    if quick then
      [
        ("fig3-slice", stateless (fig3_slice ~iters:4000 ~nop_counts:[ 100; 700 ]));
        ("litmus-catalogue", stateless (litmus_catalogue ?fault ~trials:800));
        ("fig6a-ring", stateless (fig6a_ring ?fault ~messages:40000));
        ("fuzz-round", stateless (fuzz_round ?fault ~tests:30 ~trials_per_test:120));
        ("serve-cold", stateless (serve_cold ~requests:120));
        ("serve-warm", serve_warm (demo 120));
        ("serve-zipf-warm", serve_warm (zipf 120));
        ("serve-sharded-cold", stateless (serve_sharded_cold ~domains:2 ~requests:120));
        ("serve-sharded-warm", serve_sharded_warm ~domains:2 ~requests:120);
        ( "many-core-central",
          stateless
            (many_core ~kind:Armb_sync.Sync_barrier.Central ~cores:256 ~episodes:2 ~work:64) );
        ( "many-core-tree",
          stateless
            (many_core ~kind:(Armb_sync.Sync_barrier.Tree 4) ~cores:256 ~episodes:2 ~work:64) );
      ]
    else
      [
        ("fig3-slice", stateless (fig3_slice ~iters:15000 ~nop_counts:[ 100; 300; 500; 700 ]));
        ("litmus-catalogue", stateless (litmus_catalogue ?fault ~trials:2000));
        ("fig6a-ring", stateless (fig6a_ring ?fault ~messages:100000));
        ("fuzz-round", stateless (fuzz_round ?fault ~tests:60 ~trials_per_test:150));
        ("serve-cold", stateless (serve_cold ~requests:400));
        ("serve-warm", serve_warm (demo 400));
        ("serve-zipf-warm", serve_warm (zipf 400));
        ("serve-sharded-cold", stateless (serve_sharded_cold ~domains:4 ~requests:400));
        ("serve-sharded-warm", serve_sharded_warm ~domains:4 ~requests:400);
        ( "many-core-central",
          stateless
            (many_core ~kind:Armb_sync.Sync_barrier.Central ~cores:256 ~episodes:32 ~work:64) );
        ( "many-core-tree",
          stateless
            (many_core ~kind:(Armb_sync.Sync_barrier.Tree 4) ~cores:256 ~episodes:32 ~work:64) );
      ]
  in
  let workloads =
    match only with
    | None -> workloads
    | Some ids ->
      let known = List.map fst workloads in
      List.iter
        (fun id ->
          if not (List.mem id known) then
            invalid_arg
              (Printf.sprintf "Perf.run: unknown workload %S (valid: %s)" id
                 (String.concat ", " known)))
        ids;
      List.filter (fun (name, _) -> List.mem name ids) workloads
  in
  let pass ~warm_up =
    List.map
      (fun (name, w) ->
        if warm_up then progress name;
        time_round w)
      workloads
  in
  ignore (pass ~warm_up:true);
  let passes = List.init rounds (fun _ -> pass ~warm_up:false) in
  let samples =
    List.mapi
      (fun i (name, _) ->
        let runs = List.concat_map (fun p -> List.nth p i) passes in
        let events = fst (List.hd runs) in
        let wall_s = median (List.map snd runs) in
        let events_per_sec =
          if events > 0 && wall_s > 0. then float_of_int events /. wall_s else 0.
        in
        { name; events; wall_s; events_per_sec })
      workloads
  in
  { mode = (if quick then "quick" else "full"); fault = fault_name; samples }

let pp ppf r =
  Format.fprintf ppf "@[<v>kernel perf (%s mode%s)@," r.mode
    (if r.fault = "none" then "" else ", fault plan " ^ r.fault);
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-18s %9d events  %8.3f s  %12.0f events/s@," s.name s.events
        s.wall_s s.events_per_sec)
    r.samples;
  Format.fprintf ppf "@]"

(* ---------- JSON serialization ---------- *)

module Json = Armb_json.Json

let to_json r : Json.t =
  let sample s =
    Json.Obj
      [
        ("name", Str s.name);
        ("events", Int s.events);
        ("wall_s", Float s.wall_s);
        ("events_per_sec", Float s.events_per_sec);
      ]
  in
  Obj
    [
      ("schema", Str "armb-perf-v1");
      ("mode", Str r.mode);
      ("fault", Str r.fault);
      ("workloads", List (List.map sample r.samples));
    ]

let of_json j =
  let sample w =
    match
      ( Json.mem_str "name" w,
        Json.mem_int "events" w,
        Json.mem_number "wall_s" w,
        Json.mem_number "events_per_sec" w )
    with
    | Some name, Some events, Some wall_s, Some events_per_sec ->
      Ok { name; events; wall_s; events_per_sec }
    | _ -> Error "a workload lacks name, events, wall_s or events_per_sec"
  in
  match (Json.mem_str "mode" j, Option.bind (Json.member "workloads" j) Json.list) with
  | Some mode, Some ws ->
    (* pre-fault files never set the key: they read as faults-off *)
    let fault = Option.value ~default:"none" (Json.mem_str "fault" j) in
    let rec samples = function
      | [] -> Ok []
      | w :: ws -> Result.bind (sample w) (fun s -> Result.map (List.cons s) (samples ws))
    in
    Result.map (fun samples -> { mode; fault; samples }) (samples ws)
  | _ -> Error "no mode or workloads list"

let load_json ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> Result.bind (Json.of_string text) of_json

(* ---------- baseline comparison ---------- *)

type regression = { workload : string; baseline_eps : float; current_eps : float }

let compare_against ~baseline current ~tolerance =
  List.filter_map
    (fun s ->
      if s.events = 0 then None
      else
        match List.find_opt (fun b -> b.name = s.name) baseline.samples with
        | Some b when b.events > 0 && b.events_per_sec > 0. ->
          if s.events_per_sec < b.events_per_sec *. (1. -. tolerance) then
            Some
              {
                workload = s.name;
                baseline_eps = b.events_per_sec;
                current_eps = s.events_per_sec;
              }
          else None
        | _ -> None)
    current.samples
