(* The simulator slice: a fixed part of the paper's evaluation on the
   timing simulator, in four parts.  Every traced run makes two passes
   over it to measure the simulator layers.  One unit is one simulator
   run; a pass runs every unit once, in a fixed order.  Units are pure
   functions of their parameters, so their simulated events and cycles
   must repeat exactly from pass to pass. *)

module AM = Armb_core.Abstracted_model
module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering
module P = Armb_platform.Platform
module Enumerate = Armb_litmus.Enumerate

let parts = [ "fig3"; "ring"; "litmus"; "manycore" ]

type outcome = { events : int; cycles : int; ok : bool; detail : string }

type unit_ = { part : string; label : string; run : unit -> outcome }

let pass_ ~events ~cycles = { events; cycles; ok = true; detail = "" }

let cross_node cfg = Armb_mem.Topology.num_cores cfg.Armb_cpu.Config.topo / 2

(* Figure 3: the store-store model on kunpeng916 over the approaches
   and NOP counts that shape the figure, same node and cross node. *)
let fig3_units ~iters =
  let cfg = P.kunpeng916 in
  let approaches =
    [
      (Ordering.No_barrier, AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc2);
      (Ordering.Bar (Barrier.Dmb St), AM.Loc1);
      (Ordering.Stlr_release, AM.Loc1);
    ]
  in
  List.concat_map
    (fun cores ->
      List.concat_map
        (fun (approach, location) ->
          List.map
            (fun nops ->
              let spec =
                { (AM.default_spec cfg) with cores; approach; location; nops; iters }
              in
              {
                part = "fig3";
                label = Printf.sprintf "%s (%d,%d) nops=%d" (AM.label spec) (fst cores) (snd cores) nops;
                run =
                  (fun () ->
                    let cycles, events = AM.run_stats spec in
                    pass_ ~events ~cycles);
              })
            [ 100; 300; 500; 700 ])
        approaches)
    [ (0, 4); (0, cross_node cfg) ]

(* Figure 6(a): the SPSC ring with DMB ld before the fill and DMB st
   before the publish (the paper's best legal combination).  The
   consumer checks every payload. *)
let ring_run ~cores:(p, c) ~messages () =
  let m = Machine.create P.kunpeng916 in
  let prod_cnt = Machine.alloc_line m in
  let cons_cnt = Machine.alloc_line m in
  let slots = 16 in
  let buf = Machine.alloc_lines m slots in
  let bad = ref 0 in
  Machine.spawn m ~core:p (fun core ->
      for i = 0 to messages - 1 do
        let avail v = Int64.to_int v > i - slots in
        let cv = Core.await core (Core.load core cons_cnt) in
        if not (avail cv) then ignore (Core.spin_until core cons_cnt avail);
        Core.barrier core (Barrier.Dmb Ld);
        Core.compute core 60;
        Core.store core (buf + (i mod slots * 64)) (Int64.of_int i);
        Core.barrier core (Barrier.Dmb St);
        Core.store core prod_cnt (Int64.of_int (i + 1))
      done);
  Machine.spawn m ~core:c (fun core ->
      for i = 0 to messages - 1 do
        ignore (Core.spin_until core prod_cnt (fun v -> Int64.to_int v > i));
        Core.barrier core (Barrier.Dmb Ld);
        let v = Core.await core (Core.load core (buf + (i mod slots * 64))) in
        if Int64.to_int v <> i then incr bad;
        Core.compute core 10;
        Core.store core cons_cnt (Int64.of_int (i + 1))
      done);
  Machine.run_exn m;
  {
    events = Armb_sim.Event_queue.processed (Machine.queue m);
    cycles = Machine.elapsed m;
    ok = !bad = 0;
    detail = (if !bad = 0 then "" else Printf.sprintf "%d corrupted payloads" !bad);
  }

let ring_units ~messages =
  List.map
    (fun cores ->
      {
        part = "ring";
        label = Printf.sprintf "DMB ld - DMB st (%d,%d)" (fst cores) (snd cores);
        run = ring_run ~cores ~messages;
      })
    [ (0, 4); (0, cross_node P.kunpeng916) ]

(* The litmus catalogue on the simulator.  Every outcome the simulator
   witnesses must be one the exhaustive WMM enumeration allows; the
   allowed sets are computed once, at set-up. *)
let litmus_units ~trials =
  List.map
    (fun (t : Armb_litmus.Lang.test) ->
      let allowed = List.map Enumerate.outcome_to_string (Enumerate.enumerate Enumerate.Wmm t) in
      {
        part = "litmus";
        label = t.Armb_litmus.Lang.name;
        run =
          (fun () ->
            let r = Armb_litmus.Sim_runner.run ~trials ~seed:42 t in
            let illegal =
              List.filter (fun (o, _) -> not (List.mem o allowed)) r.Armb_litmus.Sim_runner.outcomes
            in
            {
              events = r.Armb_litmus.Sim_runner.events;
              cycles = r.Armb_litmus.Sim_runner.cycles;
              ok = illegal = [];
              detail =
                (match illegal with
                | [] -> ""
                | (o, _) :: _ -> "outcome not allowed by the WMM enumeration: " ^ o);
            });
      })
    Armb_litmus.Catalogue.all

(* The 256-core barrier study: central and tree barriers.  A release
   before some peer's arrival raises inside [Sync_barrier.run]. *)
let manycore_units ~episodes =
  List.map
    (fun kind ->
      let spec =
        {
          Armb_sync.Sync_barrier.cfg = P.manycore ~cores:256;
          kind;
          cores = List.init 256 Fun.id;
          episodes;
          work = 64;
        }
      in
      {
        part = "manycore";
        label = Armb_sync.Sync_barrier.kind_name kind;
        run =
          (fun () ->
            let r = Armb_sync.Sync_barrier.run spec in
            {
              events = r.Armb_sync.Sync_barrier.events;
              cycles = r.Armb_sync.Sync_barrier.cycles;
              ok = r.Armb_sync.Sync_barrier.episodes = episodes;
              detail = "";
            });
      })
    [ Armb_sync.Sync_barrier.Central; Armb_sync.Sync_barrier.Tree 4 ]

type size = { iters : int; messages : int; trials : int; episodes : int }

let default_size = { iters = 6000; messages = 30000; trials = 2000; episodes = 64 }

(* Building the slice includes the litmus part's reference
   enumeration. *)
let build ?(size = default_size) () =
  fig3_units ~iters:size.iters
  @ ring_units ~messages:size.messages
  @ litmus_units ~trials:size.trials
  @ manycore_units ~episodes:size.episodes

type timed = { unit_ : unit_; out : outcome; start : float; stop : float }

(* One pass: every unit once, part by part. *)
let run_pass units =
  List.concat_map
    (fun part ->
      List.filter_map
        (fun u ->
          if u.part <> part then None
          else
            let start = Clock.now () in
            let out =
              try u.run () with e -> { events = 0; cycles = 0; ok = false; detail = Printexc.to_string e }
            in
            Some { unit_ = u; out; start; stop = Clock.now () })
        units)
    parts

(* The checks on passes of the slice: every unit ok, and its simulated
   events and cycles identical in every pass.  One message per failed
   unit run. *)
let failures (passes : timed list list) =
  match passes with
  | [] -> []
  | reference :: _ ->
    List.concat_map
      (fun pass ->
        List.filter_map
          (fun (t, r) ->
            if not t.out.ok then Some (t.unit_.label ^ ": " ^ t.out.detail)
            else if t.out.events <> r.out.events || t.out.cycles <> r.out.cycles then
              Some (t.unit_.label ^ ": simulated counts changed between passes")
            else None)
          (List.combine pass reference))
      passes
