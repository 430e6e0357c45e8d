(* Tests for the job-service engine: canonical content-addressed keys
   (renaming invariance, collision freedom), the LRU memo cache,
   request coalescing, load shedding, fair-share priority scheduling,
   warm-vs-cold bit-identity on the golden workloads, the NDJSON codec
   and the demo batch. *)

module AM = Armb_core.Abstracted_model
module Ordering = Armb_core.Ordering
module Barrier = Armb_cpu.Barrier
module Lang = Armb_litmus.Lang
module Cat = Armb_litmus.Catalogue
module Sim = Armb_litmus.Sim_runner
module Fuzz = Armb_litmus.Fuzz
module RC = Armb_platform.Run_config
module P = Armb_platform.Platform
module Rng = Armb_sim.Rng
module Json = Armb_service.Json
module Key = Armb_service.Key
module Job = Armb_service.Job
module Cache = Armb_service.Cache
module Metrics = Armb_service.Metrics
module Engine = Armb_service.Engine
module Codec = Armb_service.Codec
module Serve = Armb_service.Serve

let check = Alcotest.check

let rc ?(seed = 42) ?(trials = 40) () = RC.make ~seed ~trials P.kunpeng916

(* ---------- canonical keys ---------- *)

(* A consistent injective renaming of every shared variable and
   register, predicate keys included.  Canonicalization must erase it. *)
let rename_test (t : Lang.test) =
  let rv v = "q_" ^ v in
  let rr r = "z" ^ r in
  let rinstr = function
    | Lang.Load { var; reg; acquire; addr_dep } ->
      Lang.Load
        { var = rv var; reg = rr reg; acquire; addr_dep = Option.map rr addr_dep }
    | Lang.Store { var; v; release; addr_dep } ->
      Lang.Store
        {
          var = rv var;
          v = (match v with Lang.Reg r -> Lang.Reg (rr r) | Lang.Const _ as c -> c);
          release;
          addr_dep = Option.map rr addr_dep;
        }
    | Lang.Fence f -> Lang.Fence f
  in
  let rename_key k =
    match Lang.binding_of_key k with
    | Some (Lang.Mem_var v) -> "mem:" ^ rv v
    | Some (Lang.Thread_reg (i, r)) -> Printf.sprintf "%d:%s" i (rr r)
    | None -> k
  in
  {
    t with
    Lang.name = t.Lang.name ^ "-renamed";
    init = List.map (fun (v, x) -> (rv v, x)) t.Lang.init;
    threads = List.map (List.map rinstr) t.Lang.threads;
    interesting = Lang.map_keys rename_key t.Lang.interesting;
  }

let test_key_rename_invariant () =
  List.iter
    (fun (t : Lang.test) ->
      check Alcotest.string
        (t.Lang.name ^ " canonical form survives renaming")
        (Key.canonical_test t)
        (Key.canonical_test (rename_test t)))
    Cat.all

let test_key_init_presentation () =
  List.iter
    (fun (t : Lang.test) ->
      (* binding order is presentation *)
      check Alcotest.string
        (t.Lang.name ^ " init order irrelevant")
        (Key.canonical_test t)
        (Key.canonical_test { t with Lang.init = List.rev t.Lang.init });
      (* explicit zeros for thread-referenced variables are presentation *)
      match
        List.find_opt
          (fun v -> not (List.mem_assoc v t.Lang.init))
          (Lang.vars t)
      with
      | None -> ()
      | Some v ->
        check Alcotest.string
          (t.Lang.name ^ " explicit zero init irrelevant")
          (Key.canonical_test t)
          (Key.canonical_test { t with Lang.init = (v, 0L) :: t.Lang.init }))
    Cat.all

let test_key_catalogue_distinct () =
  let keys =
    List.map (fun (t : Lang.test) -> (t.Lang.name, Key.digest (Key.canonical_test t))) Cat.all
  in
  List.iteri
    (fun i (n1, k1) ->
      List.iteri
        (fun j (n2, k2) ->
          if i < j then
            check Alcotest.bool
              (Printf.sprintf "%s and %s do not collide" n1 n2)
              false (k1 = k2))
        keys)
    keys

(* A random conjunction over the test's registers and variables, so the
   fuzz property below exercises predicate keys too. *)
let random_pred rng (t : Lang.test) =
  let keys =
    List.concat
      (List.mapi
         (fun th instrs ->
           List.map (fun r -> Printf.sprintf "%d:%s" th r) (Lang.regs_of_thread instrs))
         t.Lang.threads)
    @ List.map (fun v -> "mem:" ^ v) (Lang.vars t)
  in
  let atom k =
    let part = [| Lang.Word; Lang.Hi; Lang.Lo |].(Rng.int rng 3) in
    let v = Int64.of_int (Rng.int rng 3) in
    if Rng.bool rng then Lang.eq ~part k v else Lang.ne ~part k v
  in
  Lang.All (List.filter_map (fun k -> if Rng.int rng 3 = 0 then Some (atom k) else None) keys)

(* Fuzz skeletons with random predicates: canonicalization is
   rename-invariant, blind to conjunct order and repeated atoms, and
   collision-free over a stream of random tests. *)
let prop_fuzz_keys =
  QCheck.Test.make ~name:"random tests: rename-invariant, distinct keys" ~count:40
    QCheck.small_int (fun salt ->
      let rng = Rng.create (1000 + salt) in
      let with_pred (t : Lang.test) = { t with Lang.interesting = random_pred rng t } in
      let a = with_pred (Fuzz.generate rng) in
      let b = with_pred (Fuzz.generate rng) in
      let shuffled =
        match a.Lang.interesting with
        | Lang.All atoms ->
          Lang.All (List.rev atoms @ List.filteri (fun i _ -> i mod 2 = 0) atoms)
        | Lang.Never -> Lang.Never
      in
      Key.canonical_test a = Key.canonical_test (rename_test a)
      && Key.canonical_test a
         = Key.canonical_test (rename_test { a with Lang.interesting = shuffled })
      && (Key.canonical_test a = Key.canonical_test b
          || Key.digest (Key.canonical_test a) <> Key.digest (Key.canonical_test b)))

let test_job_key_coordinates () =
  let t = List.hd Cat.all in
  let base = { Job.spec = Job.Litmus t; rc = rc (); fault = 0.0 } in
  let key = Job.key base in
  let distinct name j =
    check Alcotest.bool (name ^ " changes the key") false (Job.key j = key)
  in
  distinct "kind" { base with Job.spec = Job.Check t };
  distinct "seed" { base with Job.rc = rc ~seed:43 () };
  distinct "trials" { base with Job.rc = rc ~trials:41 () };
  distinct "fault plan" { base with Job.fault = 0.5 };
  distinct "platform"
    { base with Job.rc = RC.make ~seed:42 ~trials:40 P.kirin970 };
  (* ...but a renamed test is the same job *)
  check Alcotest.string "renamed test, same key" key
    (Job.key { base with Job.spec = Job.Litmus (rename_test t) })

(* ---------- LRU cache ---------- *)

let test_cache_lru () =
  let c = Cache.create ~cap:3 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Cache.put c "c" 3;
  check Alcotest.(list string) "MRU order" [ "c"; "b"; "a" ] (Cache.keys_mru c);
  (* find bumps recency: a becomes MRU, so b is evicted next *)
  check Alcotest.(option int) "find a" (Some 1) (Cache.find c "a");
  Cache.put c "d" 4;
  check Alcotest.bool "b evicted" false (Cache.mem c "b");
  check Alcotest.(list string) "order after eviction" [ "d"; "a"; "c" ]
    (Cache.keys_mru c);
  (* mem is pure: c stays LRU and falls out next *)
  check Alcotest.bool "mem c" true (Cache.mem c "c");
  Cache.put c "e" 5;
  check Alcotest.bool "c evicted despite mem" false (Cache.mem c "c");
  (* put on a live key updates in place, no eviction *)
  Cache.put c "a" 10;
  check Alcotest.(option int) "a updated" (Some 10) (Cache.find c "a");
  check Alcotest.int "size capped" 3 (Cache.size c)

(* ---------- engine: coalescing, hits, shedding, scheduling ---------- *)

let job_of_test ?(trials = 6) (t : Lang.test) =
  { Job.spec = Job.Litmus t; rc = rc ~trials (); fault = 0.0 }

let req ?(client = "anon") ?(priority = Engine.Normal) ~id job =
  { Engine.id; client; priority; job }

let origins responses =
  List.map
    (fun (r : Engine.response) ->
      match r.Engine.reply with
      | Engine.Result { origin; _ } -> (r.Engine.id, origin)
      | _ -> (r.Engine.id, Engine.Cold))
    responses

let test_coalescing () =
  let e = Engine.create () in
  let job = job_of_test (List.hd Cat.all) in
  for i = 1 to 5 do
    match Engine.submit e (req ~id:(string_of_int i) job) with
    | None -> ()
    | Some _ -> Alcotest.fail "identical in-flight requests must coalesce"
  done;
  let m = Engine.metrics e in
  check Alcotest.int "one miss" 1 (Metrics.get m "misses");
  check Alcotest.int "four coalesced" 4 (Metrics.get m "coalesced");
  let rs = Engine.drain e in
  check Alcotest.int "five responses" 5 (List.length rs);
  check
    Alcotest.(list (pair string bool))
    "head is the cold computation, the rest coalesced"
    [ ("1", true); ("2", false); ("3", false); ("4", false); ("5", false) ]
    (List.map (fun (id, o) -> (id, o = Engine.Cold)) (origins rs));
  (* the finished result now serves hits without queueing *)
  (match Engine.submit e (req ~id:"6" job) with
  | Some { Engine.reply = Engine.Result { origin = Engine.Hit; wall_us = 0; _ }; _ } ->
    ()
  | _ -> Alcotest.fail "expected an immediate cache hit");
  check Alcotest.int "hit recorded" 1 (Metrics.get (Engine.metrics e) "hits")

let test_no_cache_disables_both () =
  let e = Engine.create ~no_cache:true () in
  let job = job_of_test (List.hd Cat.all) in
  (match Engine.submit e (req ~id:"1" job) with
  | None -> ()
  | Some _ -> Alcotest.fail "first submit should queue");
  (match Engine.submit e (req ~id:"2" job) with
  | None -> ()
  | Some _ -> Alcotest.fail "second submit should queue, not hit");
  let rs = Engine.drain e in
  check Alcotest.int "two distinct computations" 2 (List.length rs);
  List.iter
    (fun (_, o) -> check Alcotest.bool "all cold" true (o = Engine.Cold))
    (origins rs);
  check Alcotest.int "no coalescing" 0 (Metrics.get (Engine.metrics e) "coalesced")

let test_shedding () =
  let e = Engine.create ~queue_bound:2 () in
  let tests = Array.of_list Cat.all in
  let submit i = Engine.submit e (req ~id:(string_of_int i) (job_of_test tests.(i))) in
  (match (submit 0, submit 1) with
  | None, None -> ()
  | _ -> Alcotest.fail "first two distinct jobs fit the queue");
  (match submit 2 with
  | Some { Engine.reply = Engine.Shed { retry_after_ms }; _ } ->
    check Alcotest.bool "retry hint positive" true (retry_after_ms > 0)
  | _ -> Alcotest.fail "third distinct job must shed");
  (* coalescing onto queued work is free: no shed *)
  (match Engine.submit e (req ~id:"x" (job_of_test tests.(0))) with
  | None -> ()
  | Some _ -> Alcotest.fail "coalesced waiter must not shed");
  check Alcotest.int "one shed" 1 (Metrics.get (Engine.metrics e) "shed");
  let rs = Engine.drain e in
  check Alcotest.int "queued work still completes" 3 (List.length rs)

let test_priority_order () =
  let e = Engine.create () in
  let tests = Array.of_list Cat.all in
  ignore (Engine.submit e (req ~id:"lo" ~priority:Engine.Low (job_of_test tests.(0))));
  ignore (Engine.submit e (req ~id:"no" ~priority:Engine.Normal (job_of_test tests.(1))));
  ignore (Engine.submit e (req ~id:"hi" ~priority:Engine.High (job_of_test tests.(2))));
  let ids = List.map (fun (r : Engine.response) -> r.Engine.id) (Engine.drain e) in
  check Alcotest.(list string) "high before normal before low" [ "hi"; "no"; "lo" ] ids

let test_fair_share () =
  let e = Engine.create () in
  let tests = Array.of_list Cat.all in
  ignore (Engine.submit e (req ~id:"a1" ~client:"alice" (job_of_test tests.(0))));
  ignore (Engine.submit e (req ~id:"a2" ~client:"alice" (job_of_test tests.(1))));
  ignore (Engine.submit e (req ~id:"a3" ~client:"alice" (job_of_test tests.(2))));
  ignore (Engine.submit e (req ~id:"b1" ~client:"bob" (job_of_test tests.(3))));
  ignore (Engine.submit e (req ~id:"b2" ~client:"bob" (job_of_test tests.(4))));
  let ids = List.map (fun (r : Engine.response) -> r.Engine.id) (Engine.drain e) in
  check
    Alcotest.(list string)
    "round-robin across clients, FIFO within"
    [ "a1"; "b1"; "a2"; "b2"; "a3" ]
    ids

let test_error_reply () =
  let e = Engine.create () in
  let bad = { Job.spec = Job.Ring { combo = "no such combo"; messages = 10 }; rc = rc (); fault = 0.0 } in
  (match Engine.submit e (req ~id:"1" bad) with
  | Some { Engine.reply = Engine.Error _; _ } -> ()
  | _ -> Alcotest.fail "invalid job spec must fail at submit (key) time");
  check Alcotest.int "failure counted" 1 (Metrics.get (Engine.metrics e) "failed")

(* ---------- warm-vs-cold bit-identity on the golden workloads ---------- *)

(* One job per golden workload family, with the result text computed
   directly against the underlying engines — the same renderings the
   golden-digest suite pins. *)
let golden_jobs () =
  let t = List.find (fun (t : Lang.test) -> t.Lang.name = "MP") Cat.all in
  let rc40 = rc () in
  let litmus_direct =
    let r = Sim.run ~trials:40 ~seed:42 t in
    Printf.sprintf "%s witnessed=%b\n" t.Lang.name r.Sim.interesting_witnessed
    ^ String.concat ""
        (List.map (fun (o, k) -> Printf.sprintf "  %d %s\n" k o) r.Sim.outcomes)
  in
  let check_direct =
    let base, stripped = Sim.check_test ~cfg:rc40.RC.cfg ~trials:12 t in
    Format.asprintf "%a\n" Sim.pp_check_row (Sim.check_row_of t ~base ~stripped)
  in
  let ring_direct =
    let spec =
      {
        (Armb_sync.Spsc_ring.default_spec rc40.RC.cfg ~cores:rc40.RC.cores) with
        Armb_sync.Spsc_ring.messages = 200;
        barriers = Armb_sync.Spsc_ring.combo "DMB ld - DMB st";
      }
    in
    let r = Armb_sync.Spsc_ring.run spec in
    Format.asprintf "%s cycles=%d %a\n" "DMB ld - DMB st" r.Armb_sync.Spsc_ring.cycles
      Armb_mem.Memsys.pp_counters r.Armb_sync.Spsc_ring.lines_touched
  in
  let fuzz_direct =
    Format.asprintf "%a@." Fuzz.pp_report
      (Fuzz.run ~tests:5 ~trials_per_test:40 ~seed:42 ())
  in
  (* one line of the golden fig3 slice, same emit format *)
  let model_direct =
    let spec =
      {
        (AM.default_spec rc40.RC.cfg) with
        AM.cores = rc40.RC.cores;
        mem_ops = AM.Store_store;
        approach = Ordering.Bar (Barrier.Dmb Full);
        location = AM.Loc1;
        nops = 100;
        iters = 300;
      }
    in
    Printf.sprintf "st-st dmb-full-1 (%d,%d) nops=100 cycles=%d\n"
      (fst rc40.RC.cores) (snd rc40.RC.cores) (AM.run_cycles spec)
  in
  [
    ( "model",
      {
        Job.spec =
          Job.Model
            {
              label = "dmb-full-1";
              mem_ops = AM.Store_store;
              approach = Ordering.Bar (Barrier.Dmb Full);
              location = AM.Loc1;
              nops = 100;
              iters = 300;
            };
        rc = rc40;
        fault = 0.0;
      },
      model_direct );
    ("litmus", { Job.spec = Job.Litmus t; rc = rc40; fault = 0.0 }, litmus_direct);
    ( "check",
      { Job.spec = Job.Check t; rc = rc ~trials:12 (); fault = 0.0 },
      check_direct );
    ( "ring",
      {
        Job.spec = Job.Ring { combo = "DMB ld - DMB st"; messages = 200 };
        rc = rc40;
        fault = 0.0;
      },
      ring_direct );
    ( "fuzz",
      { Job.spec = Job.Fuzz { tests = 5 }; rc = rc40; fault = 0.0 },
      fuzz_direct );
  ]

let test_golden_cold_and_warm () =
  let e = Engine.create () in
  List.iter
    (fun (name, job, direct) ->
      (match Engine.submit e (req ~id:name job) with
      | None -> ()
      | Some _ -> Alcotest.fail (name ^ ": cold submit should queue"));
      (match Engine.drain e with
      | [ { Engine.reply = Engine.Result { origin = Engine.Cold; result; _ }; _ } ] ->
        check Alcotest.string (name ^ ": cold text matches direct computation")
          direct result.Job.text
      | _ -> Alcotest.fail (name ^ ": expected one cold response"));
      (* warm hit is byte-identical to the cold run *)
      match Engine.submit e (req ~id:(name ^ "-warm") job) with
      | Some { Engine.reply = Engine.Result { origin = Engine.Hit; result; _ }; _ } ->
        check Alcotest.string (name ^ ": warm hit bit-identical") direct
          result.Job.text
      | _ -> Alcotest.fail (name ^ ": expected a warm hit"))
    (golden_jobs ())

let test_compare_cold_identical () =
  let lines = Serve.demo_requests ~requests:24 ~seed:3 () in
  let c = Serve.compare_cold ~lines () in
  check Alcotest.bool "warm responses byte-identical to cold" true c.Serve.identical;
  check Alcotest.int "same response count" (List.length c.Serve.cold.Serve.responses)
    (List.length c.Serve.warm.Serve.responses);
  check Alcotest.bool "duplicates coalesced on the warm engine" true
    (Metrics.get c.Serve.warm_metrics "coalesced" > 0)

(* ---------- demo batch ---------- *)

let strip_envelope line =
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
    Json.to_string
      (Json.Obj
         (List.filter
            (fun (k, _) -> k <> "id" && k <> "client" && k <> "priority")
            fields))
  | _ -> Alcotest.fail ("demo line is not a JSON object: " ^ line)

let test_demo_batch () =
  let a = Serve.demo_requests ~requests:100 ~seed:7 () in
  let b = Serve.demo_requests ~requests:100 ~seed:7 () in
  check Alcotest.(list string) "deterministic under a fixed seed" a b;
  check Alcotest.int "requested size" 100 (List.length a);
  let uniq = List.sort_uniq compare (List.map strip_envelope a) in
  check Alcotest.bool "at least half the lines are duplicates" true
    (List.length uniq * 2 <= List.length a);
  (* every line decodes *)
  List.iter
    (fun line ->
      match Codec.request_of_line line with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("demo line does not decode: " ^ e))
    a

(* ---------- codec and JSON ---------- *)

let test_codec_roundtrip () =
  let line =
    {|{"id":7,"client":"alice","priority":"high","kind":"litmus","test":"sb","trials":9,"seed":3,"platform":"kirin970","fault":0.25}|}
  in
  match Codec.request_of_line line with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check Alcotest.string "numeric id accepted" "7" r.Engine.id;
    check Alcotest.string "client" "alice" r.Engine.client;
    check Alcotest.bool "priority" true (r.Engine.priority = Engine.High);
    (match r.Engine.job.Job.spec with
    | Job.Litmus t -> check Alcotest.string "case-insensitive test lookup" "SB" t.Lang.name
    | _ -> Alcotest.fail "wrong kind");
    check Alcotest.int "trials" 9 r.Engine.job.Job.rc.RC.trials;
    check Alcotest.int "seed" 3 r.Engine.job.Job.rc.RC.seed;
    check Alcotest.string "platform" "kirin970"
      r.Engine.job.Job.rc.RC.cfg.Armb_cpu.Config.name;
    check (Alcotest.float 1e-9) "fault" 0.25 r.Engine.job.Job.fault

let test_codec_errors () =
  let bad what line =
    match Codec.request_of_line line with
    | Ok _ -> Alcotest.fail (what ^ " should be rejected")
    | Error _ -> ()
  in
  bad "missing kind" {|{"test":"SB"}|};
  bad "unknown kind" {|{"kind":"nope"}|};
  bad "unknown test" {|{"kind":"litmus","test":"NOPE"}|};
  bad "fault out of range" {|{"kind":"litmus","test":"SB","fault":1.5}|};
  bad "bad priority" {|{"kind":"litmus","test":"SB","priority":"urgent"}|};
  bad "bad platform" {|{"kind":"litmus","test":"SB","platform":"m1"}|};
  bad "not json" {|{"kind":|}

(* A predicate key no outcome can hold would silently read 0, so the
   decoder rejects it and the service answers with an error row. *)
let test_codec_predicate_keys () =
  let line keys =
    Printf.sprintf
      ({|{"id":"p","kind":"litmus","trials":4,"test_inline":{"name":"mp","threads":|}
      ^^ {|[[{"op":"st","var":"x","const":1}],[{"op":"ld","var":"x","reg":"r1"}]],|}
      ^^ {|"interesting":[%s]}}|})
      (String.concat "," (List.map (Printf.sprintf {|["%s","=",0]|}) keys))
  in
  (match (Serve.run_batch (Engine.create ()) ~lines:[ line [ "banana" ] ]).Serve.responses with
  | [ { Engine.reply = Engine.Error _; _ } ] -> ()
  | _ -> Alcotest.fail "an unknown predicate key must yield an error response");
  List.iter
    (fun k ->
      match Codec.request_of_line (line [ "1:r1"; k ]) with
      | Ok _ -> Alcotest.failf "predicate key %S should be rejected" k
      | Error _ -> ())
    [ "banana"; "2:r1"; "-1:r1"; "01:r1"; ":r1"; "1:"; "mem:"; "memx:y" ];
  match Codec.request_of_line (line [ "1:r1"; "0:r9"; "mem:x"; "mem:y" ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("well-formed predicate keys rejected: " ^ e)

(* Repeated atoms are presentation, so both spellings of MP's question
   share one key and must get the same answer — each computed on its
   own engine, so no cache can hide a difference. *)
let test_fix_predicate_spellings () =
  let answer interesting =
    let line =
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Str "f");
             ("kind", Json.Str "fix");
             ("test_inline", Codec.test_inline_to_json { Cat.mp with Lang.interesting });
             ("max_edits", Json.Int 2);
             ("budget", Json.Int 1500);
             ("trials", Json.Int 10);
             ("seed", Json.Int 42);
           ])
    in
    match (Serve.run_batch (Engine.create ()) ~lines:[ line ]).Serve.responses with
    | [ { Engine.reply = Engine.Result { key; result; _ }; _ } ] -> (key, result.Job.text)
    | _ -> Alcotest.fail "expected one fix result"
  in
  let flag = Lang.eq "1:r1" 1L and stale = Lang.ne "1:r2" 23L in
  let plain = answer (Lang.All [ flag; stale ]) in
  check Alcotest.(pair string string) "repeated atom: same key and fix response" plain
    (answer (Lang.All [ stale; flag; flag ]))

let test_response_line_parses () =
  let e = Engine.create () in
  ignore (Engine.submit e (req ~id:"1" (job_of_test (List.hd Cat.all))));
  match Engine.drain e with
  | [ r ] -> (
    match Json.of_string (Codec.response_to_line r) with
    | Ok j ->
      check Alcotest.(option string) "status" (Some "ok") (Json.mem_str "status" j);
      check Alcotest.(option string) "origin" (Some "cold") (Json.mem_str "origin" j);
      check Alcotest.bool "has result text" true (Json.mem_str "result" j <> None)
    | Error e -> Alcotest.fail ("response line does not parse: " ^ e))
  | _ -> Alcotest.fail "expected one response"

let test_json_parser () =
  let roundtrip s =
    match Json.of_string s with
    | Ok j -> Json.to_string j
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  check Alcotest.string "nested"
    {|{"a":[1,2.5,true,null],"b":{"c":"x"}}|}
    (roundtrip {| { "a" : [ 1 , 2.5 , true , null ] , "b" : { "c" : "x" } } |});
  check Alcotest.string "escapes" {|{"s":"a\"b\\c\nd"}|}
    (roundtrip {|{"s":"a\"b\\c\nd"}|});
  check Alcotest.string "unicode escape decodes" {|{"s":"é"}|}
    (roundtrip {|{"s":"é"}|});
  (match Json.of_string {|{"a":1} trailing|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must be rejected");
  match Json.of_string {|[1,|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input must be rejected"

let test_run_config_kv () =
  let r = RC.make ~cores:(1, 5) ~seed:9 ~trials:77 P.kirin960 in
  match RC.of_kv (RC.to_kv r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    check Alcotest.string "platform survives" r.RC.cfg.Armb_cpu.Config.name
      r'.RC.cfg.Armb_cpu.Config.name;
    check Alcotest.(pair int int) "cores survive" r.RC.cores r'.RC.cores;
    check Alcotest.int "seed survives" r.RC.seed r'.RC.seed;
    check Alcotest.int "trials survive" r.RC.trials r'.RC.trials;
    (* switching platform without explicit cores re-derives the default
       far-half placement for the new machine *)
    match RC.of_kv ~defaults:r [ ("platform", "raspberrypi4") ] with
    | Error e -> Alcotest.fail e
    | Ok r2 ->
      check Alcotest.(pair int int) "cores re-derived"
        (RC.default_cores (Option.get (P.by_name "raspberrypi4")))
        r2.RC.cores

(* ---------- scalability regressions ---------- *)

module Clock = Armb_service.Clock
module Shard = Armb_service.Shard

(* Client churn must not grow the scheduler: a drained lane retires, so
   the lane index tracks only clients with work in flight.  The old
   list-backed registration kept every client ever seen (and each
   registration was a full-list append). *)
let test_lane_churn () =
  let e = Engine.create ~no_cache:true () in
  let job = job_of_test ~trials:2 (List.hd Cat.all) in
  let wave tag =
    for i = 1 to 64 do
      ignore
        (Engine.submit e
           (req ~id:(Printf.sprintf "%s-%d" tag i)
              ~client:(Printf.sprintf "client-%s-%03d" tag i) job))
    done;
    check Alcotest.int (tag ^ ": one lane per active client") 64 (Engine.live_lanes e);
    check Alcotest.int
      (tag ^ ": responses")
      64
      (List.length (Engine.drain e));
    check Alcotest.int (tag ^ ": drained lanes retire") 0 (Engine.live_lanes e)
  in
  (* three waves of disjoint clients: 192 clients total, never more
     than 64 live lanes *)
  wave "a";
  wave "b";
  wave "c"

(* Absorbing a duplicate is O(1) and order-preserving: the first
   arrival computes (Cold), every later arrival coalesces, and the
   drain answers them in arrival order.  The old [waiters @ [req]]
   append made exactly this pattern quadratic. *)
let test_coalesce_order_large () =
  let e = Engine.create () in
  let job = job_of_test (List.hd Cat.all) in
  let n = 500 in
  for i = 1 to n do
    match Engine.submit e (req ~id:(string_of_int i) job) with
    | None -> ()
    | Some _ -> Alcotest.fail "duplicates of a queued job must coalesce"
  done;
  let rs = Engine.drain e in
  check Alcotest.int "one response per request" n (List.length rs);
  List.iteri
    (fun i (r : Engine.response) ->
      check Alcotest.string "arrival order preserved" (string_of_int (i + 1))
        r.Engine.id;
      match r.Engine.reply with
      | Engine.Result { origin; _ } ->
        check Alcotest.bool "first cold, rest coalesced" true
          (origin = if i = 0 then Engine.Cold else Engine.Coalesced)
      | _ -> Alcotest.fail "expected ok responses")
    rs;
  check Alcotest.int "coalesced count" (n - 1)
    (Metrics.get (Engine.metrics e) "coalesced")

(* The monotonized clock clamps a time source that steps backwards
   (NTP, VM migration), so measured intervals are never negative. *)
let test_clock_monotonic () =
  let steps = ref [ 100.0; 200.0; 50.0; 60.0; 300.0 ] in
  let source () =
    match !steps with
    | [] -> 300.0
    | x :: rest ->
      steps := rest;
      x
  in
  let c = Clock.create ~source () in
  let t1 = Clock.now_us c in
  let t2 = Clock.now_us c in
  check Alcotest.bool "advances" true (t2 > t1);
  let t3 = Clock.now_us c in
  check Alcotest.int "backwards step clamps to the last reading" t2 t3;
  check Alcotest.int "still clamped" t2 (Clock.now_us c);
  check Alcotest.bool "resumes once the source catches up" true (Clock.now_us c > t2);
  check Alcotest.bool "elapsed never negative" true
    (Clock.elapsed_us c ~since:max_int >= 0)

let test_engine_wall_us_nonnegative () =
  (* a source that jumps far backwards mid-computation *)
  let calls = ref 0 in
  let source () =
    incr calls;
    if !calls = 1 then 1000.0 else 1.0
  in
  let e = Engine.create ~clock:(Clock.create ~source ()) () in
  ignore (Engine.submit e (req ~id:"1" (job_of_test (List.hd Cat.all))));
  match Engine.drain e with
  | [ { Engine.reply = Engine.Result { wall_us; _ }; _ } ] ->
    check Alcotest.bool "wall_us clamped >= 0" true (wall_us >= 0)
  | _ -> Alcotest.fail "expected one response"

(* Response-count conservation: work the engine held from outside the
   batch surfaces as an error-tagged orphan row instead of being
   silently dropped, and every batch slot still gets its own row. *)
let test_batch_conservation () =
  let e = Engine.create () in
  let tests = Array.of_list Cat.all in
  ignore (Engine.submit e (req ~id:"outsider" (job_of_test tests.(5))));
  let lines =
    [
      {|{"id":"a","kind":"litmus","test":"MP","trials":6,"seed":42}|};
      "";
      {|{"id":"b","kind":"litmus","test":"SB","trials":6,"seed":42}|};
    ]
  in
  let b = Serve.run_batch e ~lines in
  check Alcotest.int "2 slots + 1 orphan" 3 (List.length b.Serve.responses);
  (match b.Serve.responses with
  | [ ra; rb; orphan ] ->
    check Alcotest.string "slot order" "a" ra.Engine.id;
    check Alcotest.string "slot order" "b" rb.Engine.id;
    check Alcotest.string "orphan keeps its id" "outsider" orphan.Engine.id;
    (match orphan.Engine.reply with
    | Engine.Error m ->
      check Alcotest.bool "orphan tagged" true
        (String.length m >= 8 && String.sub m 0 8 = "orphaned")
    | _ -> Alcotest.fail "orphan must be an error row")
  | _ -> Alcotest.fail "unexpected batch shape");
  (* an engine that starts empty conserves exactly *)
  let b2 = Serve.run_batch (Engine.create ()) ~lines in
  check Alcotest.int "fresh engine: one row per non-blank line" 2
    (List.length b2.Serve.responses)

(* ---------- JSON grammar ---------- *)

let test_json_number_grammar () =
  let ok what s expected =
    match Json.of_string s with
    | Ok j -> check Alcotest.string what expected (Json.to_string j)
    | Error e -> Alcotest.fail (what ^ ": " ^ e)
  in
  let bad what s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (what ^ " must be rejected")
    | Error _ -> ()
  in
  ok "zero" "0" "0";
  ok "negative zero" "-0" "0";
  ok "int" "-127" "-127";
  ok "fraction" "0.5" "0.5";
  ok "exponent" "1e2" "100.0";
  ok "signed exponent" "1.5E+2" "150.0";
  ok "big magnitude falls back to float" "123456789123456789123456789"
    "1.2345678912345679e+26";
  bad "leading plus" "+5";
  bad "leading zero" "01";
  bad "hex" "0x10";
  bad "underscores" "1_000";
  bad "bare dot" "5.";
  bad "leading dot" ".5";
  bad "dangling exponent" "1e";
  bad "double minus" "--1";
  bad "minus alone" "-";
  bad "inf" "inf";
  bad "nan" "nan"

let test_json_surrogate_pairs () =
  (* escape pairs assembled by concatenation so the pair only exists in
     the parsed JSON, never in this source file's encoding *)
  (match Json.of_string ({|"\ud83d|} ^ {|\ude00"|}) with
  | Ok (Json.Str s) ->
    check Alcotest.string "surrogate pair combines into one code point"
      "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e);
  (match Json.of_string ({|"\ud834|} ^ {|\udd1e"|}) with
  | Ok (Json.Str s) ->
    check Alcotest.string "U+1D11E" "\xf0\x9d\x84\x9e" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e);
  let bad what s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (what ^ " must be rejected")
    | Error _ -> ()
  in
  bad "lone high surrogate" {|"\ud83d"|};
  bad "lone low surrogate" {|"\ude00"|};
  bad "high followed by non-surrogate" {|"\ud83dA"|};
  bad "high at end of escape run" {|"\ud83dx"|};
  (* basic-plane escapes still decode *)
  match Json.of_string "\"\\u00e9\"" with
  | Ok (Json.Str s) -> check Alcotest.string "BMP escape" "\xc3\xa9" s
  | _ -> Alcotest.fail "BMP escape must decode"

(* Floats print in the fewest digits that read back exactly. *)
let test_json_float_exact () =
  let reads_back f =
    match Json.of_string (Json.to_string (Json.Float f)) with
    | Ok (Json.Float g) -> check (Alcotest.float 0.) (Json.to_string (Json.Float f)) f g
    | Ok _ -> Alcotest.fail "a float must read back as a float"
    | Error e -> Alcotest.fail e
  in
  check Alcotest.string "1234567.5" "1234567.5" (Json.to_string (Json.Float 1234567.5));
  check Alcotest.string "12345.678" "12345.678" (Json.to_string (Json.Float 12345.678));
  check Alcotest.string "0.1" "0.1" (Json.to_string (Json.Float 0.1));
  check Alcotest.string "integral" "3.0" (Json.to_string (Json.Float 3.));
  check Alcotest.string "non-finite" "[null,null]"
    (Json.to_string (Json.List [ Json.Float Float.nan; Json.Float Float.infinity ]));
  List.iter reads_back
    [ 1234567.5; 12345.678; 0.1; 1. /. 3.; 1e16 +. 2.; 1e300; -5e-324; Float.max_float ]

(* Printable round-trip property over random JSON trees, finite floats
   included: the parsed value must equal the original. *)
let prop_json_roundtrip =
  let open QCheck in
  let leaf =
    Gen.oneof
      [
        Gen.return Json.Null;
        Gen.map (fun b -> Json.Bool b) Gen.bool;
        Gen.map (fun i -> Json.Int i) Gen.int;
        Gen.map (fun s -> Json.Str s) Gen.string_printable;
        Gen.map (fun f -> Json.Float (if Float.is_finite f then f else 0.5)) Gen.float;
      ]
  in
  let tree =
    Gen.sized (fun n ->
        Gen.fix
          (fun self n ->
            if n <= 1 then leaf
            else
              Gen.oneof
                [
                  leaf;
                  Gen.map (fun xs -> Json.List xs)
                    (Gen.list_size (Gen.int_bound 4) (self (n / 2)));
                  Gen.map (fun kvs -> Json.Obj kvs)
                    (Gen.list_size (Gen.int_bound 4)
                       (Gen.pair Gen.string_printable (self (n / 2))));
                ])
          n)
  in
  Test.make ~name:"to_string/of_string round trip" ~count:200 (make tree)
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> j = j'
      | Error _ -> false)

(* ---------- sharded service ---------- *)

let test_shard_routing_stable_and_balanced () =
  let a = Shard.create ~domains:4 () in
  let b = Shard.create ~domains:4 () in
  let counts = Array.make 4 0 in
  for i = 0 to 9999 do
    (* routing inputs are Hashtbl.hash outputs (Job.route_hash), so the
       balance claim is over hash-distributed points, not raw ints *)
    let h = Hashtbl.hash ("route", i) in
    let s = Shard.shard_of_hash a h in
    check Alcotest.int "same ring for the same domain count" s
      (Shard.shard_of_hash b h);
    check Alcotest.bool "in range" true (s >= 0 && s < 4);
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      check Alcotest.bool
        (Printf.sprintf "shard %d owns a non-trivial share (%d)" i c)
        true
        (c > 500))
    counts;
  (* identical requests land on identical shards *)
  (match Codec.request_of_line {|{"kind":"litmus","test":"MP","trials":6}|} with
  | Ok r ->
    check Alcotest.int "request routing deterministic" (Shard.shard_of a r)
      (Shard.shard_of a r)
  | Error e -> Alcotest.fail e);
  ignore (Shard.shutdown a : Engine.response list);
  ignore (Shard.shutdown b : Engine.response list)

let test_shard_identical_to_single () =
  let lines = Serve.demo_requests ~requests:60 ~seed:3 () in
  let c = Shard.compare_single ~domains:3 ~lines () in
  check Alcotest.bool "sharded responses signature-identical to one domain" true
    c.Shard.identical;
  check Alcotest.bool "duplicates coalesced on their shards" true
    (c.Shard.coalesced > 0);
  check Alcotest.int "same coalesce count as one domain"
    (Metrics.get c.Shard.single_metrics "coalesced")
    c.Shard.coalesced

let test_shard_global_queue_bound () =
  (* 60 requests over ~24 distinct jobs against a global bound of 4:
     the router must shed in input order exactly where one engine
     would, not per shard *)
  let lines = Serve.demo_requests ~requests:60 ~seed:3 () in
  let c = Shard.compare_single ~domains:3 ~queue_bound:4 ~lines () in
  check Alcotest.bool "shed pattern identical to one domain" true c.Shard.identical;
  check Alcotest.bool "something was shed" true
    (Metrics.get c.Shard.single_metrics "shed" > 0)

let test_shard_zipf_deterministic_and_skewed () =
  let a = Serve.zipf_requests ~requests:400 ~seed:5 () in
  let b = Serve.zipf_requests ~requests:400 ~seed:5 () in
  check Alcotest.(list string) "deterministic under a fixed seed" a b;
  check Alcotest.bool "seed changes the batch" true
    (a <> Serve.zipf_requests ~requests:400 ~seed:6 ());
  check Alcotest.int "requested size" 400 (List.length a);
  (* Zipf head: the hottest job dominates far beyond the uniform 1/40 *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      let k = strip_envelope line in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    a;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) tbl 0 in
  check Alcotest.bool
    (Printf.sprintf "hottest job dominates (%d/400)" top)
    true (top >= 40);
  List.iter
    (fun line ->
      match Codec.request_of_line line with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("zipf line does not decode: " ^ e))
    a

(* ---------- streaming loop and its line reader ---------- *)

module Line_reader = Armb_service.Line_reader

(* The lines [input_line] yields from [text], as the reference. *)
let input_lines text =
  let path = Filename.temp_file "armb-lines" ".txt" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  let ic = open_in_bin path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  (path, lines)

(* A [read] that hands out [text] in the given pieces: [0] raises
   EINTR or EAGAIN instead of reading, [k > 0] reads at most [k] bytes;
   once the pieces run out, every read takes what fits. *)
let cut_read text pieces =
  let pos = ref 0 and pieces = ref pieces and fails = ref 0 in
  fun buf off len ->
    let take k =
      let k = min k (min len (String.length text - !pos)) in
      Bytes.blit_string text !pos buf off k;
      pos := !pos + k;
      k
    in
    match !pieces with
    | 0 :: rest ->
      pieces := rest;
      incr fails;
      raise (Unix.Unix_error ((if !fails mod 2 = 0 then Unix.EINTR else Unix.EAGAIN), "read", ""))
    | k :: rest ->
      pieces := rest;
      take k
    | [] -> take len

(* Poll a reader until end of input; [Idle] just polls again. *)
let reader_lines r =
  let rec go acc =
    match Line_reader.next r ~timeout:0. with
    | Line_reader.Line l -> go (l :: acc)
    | Line_reader.Idle -> go acc
    | Line_reader.Eof -> List.rev acc
  in
  go []

let prop_reader_matches_input_line =
  let open QCheck in
  let text = Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '\n'; '\n'; '\r' ]) (int_bound 300)) in
  let pieces = Gen.(list_size (int_bound 40) (int_bound 12)) in
  Test.make ~name:"reader yields input_line's lines for any read sizes" ~count:300
    (make
       ~print:Print.(triple string (list int) int)
       Gen.(triple text pieces (int_range 1 16)))
    (fun (text, pieces, size) ->
      let path, expected = input_lines text in
      (* a regular file is always readable, so [select] never holds the
         reader up and the pieces alone decide what each read returns *)
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let got = reader_lines (Line_reader.create ~size ~read:(cut_read text pieces) fd) in
      Unix.close fd;
      Sys.remove path;
      got = expected)

let test_reader_not_ready_on_eintr_eagain () =
  let path, _ = input_lines "x\n" in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let r = Line_reader.create ~read:(cut_read "x\n" [ 0; 0 ]) fd in
  let next () = Line_reader.next r ~timeout:0. in
  check Alcotest.bool "EAGAIN: not ready" true (next () = Line_reader.Idle);
  check Alcotest.bool "EINTR: not ready" true (next () = Line_reader.Idle);
  check Alcotest.bool "then the line" true (next () = Line_reader.Line "x");
  check Alcotest.bool "then end of input" true (next () = Line_reader.Eof);
  Unix.close fd;
  Sys.remove path

(* Run [serve ic oc] in its own domain over a pair of pipes.  Returns
   the write end of its input, a reader of its output and the domain,
   which ends once the input is closed. *)
let serve_over_pipes serve =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let d =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr in_r and oc = Unix.out_channel_of_descr out_w in
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () -> serve ic oc))
  in
  (in_w, Line_reader.create out_r, out_r, d)

let write_all fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  check Alcotest.int "one whole write" (String.length s) n

(* The next response's origin, or [None] if none came within [seconds]. *)
let origin_within r ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Line_reader.next r ~timeout:left with
      | Line_reader.Line l -> (
        match Json.of_string l with
        | Ok j -> Some (Option.value ~default:"?" (Json.mem_str "origin" j))
        | Error e -> Some ("unparsed: " ^ e))
      | Line_reader.Idle -> go ()
      | Line_reader.Eof -> None
  in
  go ()

let mp_line ~id ~seed =
  Printf.sprintf "{\"id\":\"%s\",\"kind\":\"litmus\",\"test\":\"MP\",\"trials\":5,\"seed\":%d}\n" id
    seed

(* Each answer is read with a timeout while the input stays open: a
   loop that waits for more input before answering fails here instead
   of hanging. *)
let test_single_answers_without_more_input () =
  let engine = Engine.create () in
  let in_w, r, out_r, d = serve_over_pipes (Serve.serve ~drain_every:16 engine) in
  write_all in_w (mp_line ~id:"miss" ~seed:11);
  let miss = origin_within r ~seconds:3. in
  (* ten identical misses in one write, under PIPE_BUF: they arrive
     together, are all read before the drain, and coalesce *)
  write_all in_w (String.concat "" (List.init 10 (fun i -> mp_line ~id:(Printf.sprintf "b%d" i) ~seed:12)));
  let burst = List.init 10 (fun _ -> origin_within r ~seconds:3.) in
  Unix.close in_w;
  Domain.join d;
  Unix.close out_r;
  check (Alcotest.option Alcotest.string) "single miss answered with the input open" (Some "cold") miss;
  let count o = List.length (List.filter (( = ) (Some o)) burst) in
  check Alcotest.(pair int int) "burst: 1 cold, 9 coalesced" (1, 9) (count "cold", count "coalesced")

let test_shard_answers_without_more_input () =
  let pool = Shard.create ~domains:1 ~drain_every:16 () in
  ignore (Shard.run_batch pool ~lines:[ mp_line ~id:"warm" ~seed:13 ]);
  let in_w, r, out_r, d = serve_over_pipes (Shard.serve pool) in
  write_all in_w (mp_line ~id:"hit" ~seed:13);
  let hit = origin_within r ~seconds:3. in
  Unix.close in_w;
  Domain.join d;
  Unix.close out_r;
  ignore (Shard.shutdown pool : Engine.response list);
  check (Alcotest.option Alcotest.string) "sharded hit answered with the input open" (Some "hit") hit

let () =
  Alcotest.run "service"
    [
      ( "keys",
        [
          Alcotest.test_case "catalogue renaming invariance" `Quick
            test_key_rename_invariant;
          Alcotest.test_case "init presentation invariance" `Quick
            test_key_init_presentation;
          Alcotest.test_case "catalogue keys distinct" `Quick
            test_key_catalogue_distinct;
          QCheck_alcotest.to_alcotest prop_fuzz_keys;
          Alcotest.test_case "run coordinates keyed" `Quick test_job_key_coordinates;
        ] );
      ( "cache",
        [ Alcotest.test_case "LRU eviction and recency" `Quick test_cache_lru ] );
      ( "engine",
        [
          Alcotest.test_case "coalescing then hit" `Quick test_coalescing;
          Alcotest.test_case "no-cache disables memo and coalescing" `Quick
            test_no_cache_disables_both;
          Alcotest.test_case "load shedding" `Quick test_shedding;
          Alcotest.test_case "priority order" `Quick test_priority_order;
          Alcotest.test_case "fair share across clients" `Quick test_fair_share;
          Alcotest.test_case "invalid spec errors" `Quick test_error_reply;
          Alcotest.test_case "lane churn bounded, drained lanes retire" `Quick
            test_lane_churn;
          Alcotest.test_case "hot-key coalescing order at scale" `Quick
            test_coalesce_order_large;
          Alcotest.test_case "clock clamps backwards steps" `Quick
            test_clock_monotonic;
          Alcotest.test_case "wall_us non-negative under clock rollback" `Quick
            test_engine_wall_us_nonnegative;
          Alcotest.test_case "batch response-count conservation" `Quick
            test_batch_conservation;
        ] );
      ( "shard",
        [
          Alcotest.test_case "routing stable and balanced" `Slow
            test_shard_routing_stable_and_balanced;
          Alcotest.test_case "sharded identical to single-domain" `Slow
            test_shard_identical_to_single;
          Alcotest.test_case "global queue bound" `Slow test_shard_global_queue_bound;
          Alcotest.test_case "zipf traffic deterministic and skewed" `Quick
            test_shard_zipf_deterministic_and_skewed;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "golden workloads cold and warm" `Quick
            test_golden_cold_and_warm;
          Alcotest.test_case "compare_cold identical" `Quick
            test_compare_cold_identical;
          Alcotest.test_case "demo batch" `Quick test_demo_batch;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "request errors" `Quick test_codec_errors;
          Alcotest.test_case "predicate keys validated" `Quick test_codec_predicate_keys;
          Alcotest.test_case "predicate spellings answer alike" `Quick
            test_fix_predicate_spellings;
          Alcotest.test_case "response line parses" `Quick test_response_line_parses;
          Alcotest.test_case "json parser" `Quick test_json_parser;
          Alcotest.test_case "json number grammar" `Quick test_json_number_grammar;
          Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogate_pairs;
          Alcotest.test_case "json floats read back exactly" `Quick test_json_float_exact;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "run_config kv round trip" `Quick test_run_config_kv;
        ] );
      ( "stream",
        [
          QCheck_alcotest.to_alcotest prop_reader_matches_input_line;
          Alcotest.test_case "reader: EINTR/EAGAIN read as not ready" `Quick
            test_reader_not_ready_on_eintr_eagain;
          Alcotest.test_case "single engine answers without more input" `Quick
            test_single_answers_without_more_input;
          Alcotest.test_case "shard router answers without more input" `Quick
            test_shard_answers_without_more_input;
        ] );
    ]
