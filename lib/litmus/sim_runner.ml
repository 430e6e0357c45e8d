module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Memsys = Armb_mem.Memsys
module Rng = Armb_sim.Rng
module San = Armb_check.Sanitizer

type result = {
  outcomes : (string * int) list;
  interesting_witnessed : bool;
  trials : int;
  findings : San.finding list;
  events : int;
  cycles : int;
  fault_digest : int64;
  fault_delay : int;
}

(* Compile one litmus thread to a simulator program.  Loads are issued
   eagerly and awaited lazily (at first use of the register, or at the
   end), which exposes load-load reordering to the timing model. *)
let compile_thread (th : Lang.thread) ~addr_of ~start_pause ~padding ~record (c : Core.t) =
  Core.pause c start_pause;
  let toks : (string, Core.token) Hashtbl.t = Hashtbl.create 8 in
  let reg_value r =
    match Hashtbl.find_opt toks r with
    | Some tok -> Core.await c tok
    | None -> 0L
  in
  (* Syntactic dependencies also flow to the instrumentation hook, so
     the sanitizer sees the same preserved order the hardware would. *)
  let dep_tok r = match Hashtbl.find_opt toks r with Some t -> [ t ] | None -> [] in
  List.iteri
    (fun idx instr ->
      if idx > 0 && padding > 0 then Core.compute c padding;
      match instr with
      | Lang.Load { var; reg; acquire; addr_dep } ->
        let deps, addr =
          match addr_dep with
          | Some r ->
            let v = reg_value r in
            Core.compute c 1;
            (dep_tok r, addr_of var + Int64.to_int (Int64.logxor v v))
          | None -> ([], addr_of var)
        in
        let tok = if acquire then Core.ldar c ~deps addr else Core.load c ~deps addr in
        Hashtbl.replace toks reg tok
      | Lang.Store { var; v; release; addr_dep } ->
        let deps_a, addr =
          match addr_dep with
          | Some r ->
            let dep = reg_value r in
            Core.compute c 1;
            (dep_tok r, addr_of var + Int64.to_int (Int64.logxor dep dep))
          | None -> ([], addr_of var)
        in
        let deps_v, value =
          match v with
          | Lang.Const k -> ([], k)
          | Lang.Reg r -> (dep_tok r, reg_value r)
        in
        let deps = deps_a @ deps_v in
        if release then Core.stlr c ~deps addr value else Core.store c ~deps addr value
      | Lang.Fence f ->
        let b =
          match f with
          | Lang.F_dmb_full -> Armb_cpu.Barrier.Dmb Full
          | Lang.F_dmb_st -> Armb_cpu.Barrier.Dmb St
          | Lang.F_dmb_ld -> Armb_cpu.Barrier.Dmb Ld
          | Lang.F_dsb -> Armb_cpu.Barrier.Dsb Full
          (* ctrl+ISB: the pipeline flush refetches only after every
             prior instruction retires, so earlier loads' sample times
             gate everything later — the ordering the branch+ISB idiom
             provides on hardware. *)
          | Lang.F_isb -> Armb_cpu.Barrier.Isb
        in
        Core.barrier c b)
    th;
  (* Resolve every register at the end of the thread. *)
  Hashtbl.iter (fun r tok -> record r (Core.await c tok)) toks

let run ?(cfg = Armb_platform.Platform.kunpeng916) ?(trials = 200) ?(seed = 42)
    ?(check = false) ?fault ?tracer (t : Lang.test) =
  let rng = Rng.create seed in
  let nthreads = List.length t.threads in
  let ncores = Armb_mem.Topology.num_cores cfg.topo in
  if nthreads > ncores then invalid_arg "Sim_runner.run: more threads than cores";
  (* Per-trial bookkeeping is hot (a short litmus trial simulates only a
     handful of events): hoist everything that is identical across
     trials — the variable list, the "<thread>:<reg>" / "mem:<var>" name
     strings — and defer outcome rendering to the end by keying the
     outcome histogram on the sorted binding list itself. *)
  let vars = Lang.vars t in
  let mem_names = List.map (fun v -> (v, "mem:" ^ v)) vars in
  let name_memos = Array.init (max 1 nthreads) (fun _ -> Hashtbl.create 8) in
  let reg_name i r =
    let memo = name_memos.(i) in
    match Hashtbl.find_opt memo r with
    | Some s -> s
    | None ->
      let s = Printf.sprintf "%d:%s" i r in
      Hashtbl.add memo r s;
      s
  in
  let outcomes : ((string * int64) list, int) Hashtbl.t = Hashtbl.create 16 in
  let witnessed = ref false in
  let events = ref 0 in
  (* Sanitizer findings are value-agnostic, so every trial reports the
     same racy pairs; trials differ only in whether the reordering was
     witnessed.  Dedup by signature, keeping a witnessed copy if any. *)
  let merged : (string, San.finding) Hashtbl.t = Hashtbl.create 8 in
  let fault_digest = ref 0L in
  let fault_delay = ref 0 in
  let cycles = ref 0 in
  for trial = 1 to trials do
    let san = if check then Some (San.create ()) else None in
    let observer = Option.map San.observer san in
    (* Re-seed the plan per trial so a sweep explores [trials] distinct
       fault schedules, while staying a pure function of (plan, trial). *)
    let fault =
      Option.map
        (fun (sp : Armb_fault.Plan.spec) -> Armb_fault.Plan.with_seed sp (sp.seed + trial))
        fault
    in
    let m = Machine.create ?tracer ?observer ?fault cfg in
    let mem = Machine.mem m in
    let addrs = List.map (fun v -> (v, Machine.alloc_line m)) vars in
    let addr_of v = List.assoc v addrs in
    (* Initial values + randomized initial line placement: pre-touch
       each variable's line from a random core so that some stores hit
       while others miss — the timing asymmetry that makes reorderings
       observable. *)
    (* Spread threads over distant cores when possible. *)
    let core_of i = if nthreads <= 1 then 0 else i * (ncores / nthreads) in
    List.iter
      (fun (v, a) ->
        Memsys.commit_store mem ~addr:a (match List.assoc_opt v t.init with Some x -> x | None -> 0L);
        (* Give each line to one of the participating cores (or leave it
           uncached) so that some accesses hit while others miss — the
           timing asymmetry that exposes reorderings. *)
        let pick = Rng.int rng (nthreads + 1) in
        if pick < nthreads then Memsys.place mem ~core:(core_of pick) ~addr:a)
      addrs;
    let regs : (string, int64) Hashtbl.t = Hashtbl.create 8 in
    List.iteri
      (fun i th ->
        let start_pause = Rng.int rng 40 in
        let padding = Rng.int rng 4 in
        let record r v = Hashtbl.replace regs (reg_name i r) v in
        Machine.spawn m ~core:(core_of i)
          (compile_thread th ~addr_of ~start_pause ~padding ~record))
      t.threads;
    Machine.run_exn m;
    events := !events + Armb_sim.Event_queue.processed (Machine.queue m);
    cycles := !cycles + Machine.elapsed m;
    (match Machine.injector m with
    | None -> ()
    | Some i ->
      fault_digest := Armb_fault.Injector.combine !fault_digest (Armb_fault.Injector.digest i);
      fault_delay := !fault_delay + (Armb_fault.Injector.counters i).delay_cycles);
    (* final memory joins the outcome as "mem:<var>" bindings *)
    List.iter2
      (fun (_, a) (_, mname) -> Hashtbl.replace regs mname (Memsys.load_value mem ~addr:a))
      addrs mem_names;
    let lookup r = match Hashtbl.find_opt regs r with Some v -> v | None -> 0L in
    let key =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) regs [])
    in
    Hashtbl.replace outcomes key
      (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes key));
    if Lang.eval t.interesting lookup then witnessed := true;
    match san with
    | None -> ()
    | Some s ->
      List.iter
        (fun (f : San.finding) ->
          let key = San.signature f in
          match Hashtbl.find_opt merged key with
          | Some g when g.witnessed || not f.witnessed -> ()
          | _ -> Hashtbl.replace merged key f)
        (San.findings s)
  done;
  let findings =
    Hashtbl.fold (fun _ f acc -> f :: acc) merged []
    |> List.sort (fun (f : San.finding) (g : San.finding) ->
           compare
             (f.core, f.first.op_seq, f.second.op_seq)
             (g.core, g.first.op_seq, g.second.op_seq))
  in
  {
    outcomes =
      List.sort compare
        (Hashtbl.fold
           (fun k v acc -> (Enumerate.outcome_to_string k, v) :: acc)
           outcomes []);
    interesting_witnessed = !witnessed;
    trials;
    findings;
    events = !events;
    cycles = !cycles;
    fault_digest = !fault_digest;
    fault_delay = !fault_delay;
  }

let consistent_with_model r (t : Lang.test) = (not r.interesting_witnessed) || t.expect_wmm

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%d trials, interesting witnessed: %b@," r.trials
    r.interesting_witnessed;
  List.iter (fun (o, n) -> Format.fprintf ppf "  %6d  %s@," n o) r.outcomes;
  List.iter (fun f -> Format.fprintf ppf "%a@," San.pp_finding f) r.findings;
  Format.fprintf ppf "@]"

(* The service engine's entry point: one validated Run_config instead
   of re-threading (cfg, trials, seed) positionally. *)
let run_rc ?check ?fault ?tracer (rc : Armb_platform.Run_config.t) t =
  run ~cfg:rc.cfg ~trials:rc.trials ~seed:rc.seed ?check ?fault ?tracer t

(* ---------- Sanitizer cross-check over the catalogue ---------- *)

type check_row = {
  test_name : string;
  forbidden : bool;
  base_findings : int;
  stripped_findings : int option;
  row_ok : bool;
}

let check_test ?cfg ?(trials = 50) ?seed ?fault (t : Lang.test) =
  let base = run ?cfg ~trials ?seed ~check:true ?fault t in
  let stripped =
    if Mutate.has_order_devices t then
      Some (run ?cfg ~trials ?seed ~check:true ?fault (Mutate.strip_order t))
    else None
  in
  (base, stripped)

let check_row_of (t : Lang.test) ~base ~stripped =
  let base_findings = List.length base.findings in
  let stripped_findings = Option.map (fun r -> List.length r.findings) stripped in
  let forbidden = not t.expect_wmm in
  let row_ok =
    if forbidden then
      (* A test whose weak outcome the model forbids must carry
         enough ordering that the sanitizer finds nothing — and
         once the ordering devices are stripped, the latent race
         must surface. *)
      base_findings = 0
      && (match stripped_findings with None -> true | Some n -> n > 0)
    else if Mutate.has_order_devices t then true (* partially ordered: informational *)
    else base_findings > 0 (* racy by design: must be flagged *)
  in
  { test_name = t.Lang.name; forbidden; base_findings; stripped_findings; row_ok }

let cross_check ?cfg ?(trials = 50) ?seed ?fault () =
  let rows =
    List.map
      (fun (t : Lang.test) ->
        let base, stripped = check_test ?cfg ~trials ?seed ?fault t in
        check_row_of t ~base ~stripped)
      Catalogue.all
  in
  (rows, List.for_all (fun r -> r.row_ok) rows)

let pp_check_row ppf r =
  Format.fprintf ppf "%-18s %-9s base:%d %s %s" r.test_name
    (if r.forbidden then "forbidden" else "allowed")
    r.base_findings
    (match r.stripped_findings with
    | Some n -> Printf.sprintf "stripped:%d" n
    | None -> "stripped:-")
    (if r.row_ok then "ok" else "FAIL")
