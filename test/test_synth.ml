(* Tests for the fence synthesizer: placement IR, minimal-repair search,
   the Pilot rewrite, catalogue strip/resynthesize round trips, the
   advisor-vs-enumerator agreement property, and the fuzz-repair soak. *)

module Lang = Armb_litmus.Lang
module Enum = Armb_litmus.Enumerate
module Sim = Armb_litmus.Sim_runner
module Cat = Armb_litmus.Catalogue
module Mut = Armb_litmus.Mutate
module Ordering = Armb_core.Ordering
module Advisor = Armb_core.Advisor
module Barrier = Armb_cpu.Barrier
module P = Armb_synth.Placement
module Search = Armb_synth.Search
module Cost = Armb_synth.Cost
module Pilot = Armb_synth.Pilot_rewrite
module Fix = Armb_synth.Fix
module Soak = Armb_synth.Soak

let check = Alcotest.check

let allows = Enum.allows Enum.Wmm

(* ---------- Mutate (moved out of Sim_runner) ---------- *)

let test_strip_keep_values () =
  let stripped = Mut.strip_order ~keep_values:true Cat.lb_data_dep in
  (* data-dependency values survive a keep-values strip *)
  let has_reg_store =
    List.exists
      (List.exists (function
        | Lang.Store { v = Lang.Reg _; _ } -> true
        | _ -> false))
      stripped.Lang.threads
  in
  check Alcotest.bool "Reg values kept" true has_reg_store;
  check Alcotest.bool "still forbidden" false (allows stripped);
  (* the default strip severs them *)
  let severed = Mut.strip_order Cat.lb_data_dep in
  let has_reg_store' =
    List.exists
      (List.exists (function
        | Lang.Store { v = Lang.Reg _; _ } -> true
        | _ -> false))
      severed.Lang.threads
  in
  check Alcotest.bool "Reg values severed" false has_reg_store';
  check Alcotest.bool "race resurfaces" true (allows severed)

let test_mutate_point_edits () =
  let t = Mut.strip_order ~keep_values:true Cat.mp_dmb in
  let with_fence = Mut.insert_fence ~thread:0 ~pos:1 Lang.F_dmb_st t in
  (match with_fence.Lang.threads with
  | [ [ _; Lang.Fence Lang.F_dmb_st; _ ]; _ ] -> ()
  | _ -> Alcotest.fail "fence not inserted at producer gap");
  let acq = Mut.set_acquire ~thread:1 ~idx:0 t in
  (match acq.Lang.threads with
  | [ _; Lang.Load { acquire = true; _ } :: _ ] -> ()
  | _ -> Alcotest.fail "acquire not set");
  let rel = Mut.set_release ~thread:0 ~idx:1 t in
  (match rel.Lang.threads with
  | [ [ _; Lang.Store { release = true; _ } ]; _ ] -> ()
  | _ -> Alcotest.fail "release not set")

(* ---------- first-class ctrl+ISB ---------- *)

let mp_with_consumer consumer =
  {
    Cat.mp with
    Lang.name = "MP+test-consumer";
    threads =
      [ [ Lang.st "data" 23L; Lang.fence Lang.F_dmb_st; Lang.st "flag" 1L ]; consumer ];
  }

let test_isb_enumerator () =
  (* ctrl+ISB on the consumer orders the two loads: forbidden *)
  let isb =
    mp_with_consumer [ Lang.ld "flag" "r1"; Lang.fence Lang.F_isb; Lang.ld "data" "r2" ]
  in
  check Alcotest.bool "MP+isb forbidden" false (allows isb);
  (* a store fence on the load side orders nothing: still allowed *)
  let st_fence =
    mp_with_consumer
      [ Lang.ld "flag" "r1"; Lang.fence Lang.F_dmb_st; Lang.ld "data" "r2" ]
  in
  check Alcotest.bool "MP+dmb.st-consumer allowed" true (allows st_fence)

let test_isb_no_store_order () =
  (* ISB never orders store->store: 2+2W stays weak under it *)
  let t =
    {
      Cat.two_plus_two_w with
      Lang.name = "2+2W+isbs";
      threads =
        [
          [ Lang.st "x" 1L; Lang.fence Lang.F_isb; Lang.st "y" 2L ];
          [ Lang.st "y" 1L; Lang.fence Lang.F_isb; Lang.st "x" 2L ];
        ];
    }
  in
  check Alcotest.bool "2+2W+isbs still allowed" true (allows t)

let test_isb_sim_and_sanitizer () =
  let isb =
    mp_with_consumer [ Lang.ld "flag" "r1"; Lang.fence Lang.F_isb; Lang.ld "data" "r2" ]
  in
  let r = Sim.run ~trials:60 ~check:true isb in
  check Alcotest.bool "sim never witnesses forbidden outcome" false
    r.Sim.interesting_witnessed;
  check Alcotest.bool "consistent with model" true (Sim.consistent_with_model r isb);
  check Alcotest.int "sanitizer clean" 0 (List.length r.Sim.findings)

(* ---------- placement ---------- *)

let test_apply_reconstructs () =
  let stripped = Mut.strip_order ~keep_values:true Cat.mp_dmb in
  let repaired =
    P.apply stripped
      [
        P.Insert_fence { thread = 0; pos = 1; fence = Lang.F_dmb_st };
        P.Insert_fence { thread = 1; pos = 1; fence = Lang.F_dmb_ld };
      ]
  in
  check Alcotest.bool "same threads as hand-fenced original" true
    (repaired.Lang.threads = Cat.mp_dmb.Lang.threads);
  check Alcotest.bool "forbidden again" false (allows repaired)

let test_candidates_value_neutral () =
  (* no candidate edit may change a stored value *)
  let values t =
    List.map
      (List.filter_map (function
        | Lang.Store { v; var; _ } -> Some (var, v)
        | _ -> None))
      t.Lang.threads
  in
  List.iter
    (fun (t : Lang.test) ->
      let base = values t in
      List.iter
        (fun e ->
          let edited = values (P.apply t [ e ]) in
          if edited <> base then
            Alcotest.failf "%s: edit %s changed stored values" t.Lang.name
              (P.edit_to_string t e))
        (P.candidates t))
    [ Cat.mp; Cat.sb; Cat.lb; Mut.strip_order ~keep_values:true Cat.wrc ]

(* ---------- advisor vs enumerator (property) ---------- *)

(* Canonical two-thread tests where exactly one program-order pair on
   the "device side" must be ordered; the other side is fully ordered
   by construction.  A device is applied at that pair and the
   enumerator's verdict (forbidden iff the device suffices) must agree
   with [Advisor.sufficient] for the corresponding pair kind. *)

type pattern = {
  pat_name : string;
  base : Lang.test;  (** device side bare; weak outcome reachable *)
  device_thread : int;
  from_ : Advisor.from_access;
  to_ : Advisor.to_access;
}

let mp_ll =
  {
    pat_name = "load->load (MP consumer)";
    base =
      {
        Cat.mp with
        Lang.name = "pat-ll";
        threads =
          [
            [ Lang.st "data" 23L; Lang.fence Lang.F_dmb_st; Lang.st "flag" 1L ];
            [ Lang.ld "flag" "r1"; Lang.ld "data" "r2" ];
          ];
      };
    device_thread = 1;
    from_ = Advisor.From_load;
    to_ = Advisor.To_load;
  }

let lb_ls =
  {
    pat_name = "load->store (LB side)";
    base =
      {
        Cat.lb with
        Lang.name = "pat-ls";
        threads =
          [
            [ Lang.ld "x" "r1"; Lang.st "y" 2L ];
            [ Lang.ld "y" "r1"; Lang.st ~addr_dep:"r1" "x" 3L ];
          ];
        interesting = Lang.All [ Lang.eq "0:r1" 3L; Lang.eq "1:r1" 2L ];
      };
    device_thread = 0;
    from_ = Advisor.From_load;
    to_ = Advisor.To_store;
  }

let mp_ss =
  {
    pat_name = "store->store (MP producer)";
    base =
      {
        Cat.mp with
        Lang.name = "pat-ss";
        threads =
          [
            [ Lang.st "data" 23L; Lang.st "flag" 1L ];
            [ Lang.ld "flag" "r1"; Lang.ld ~addr_dep:"r1" "data" "r2" ];
          ];
      };
    device_thread = 0;
    from_ = Advisor.From_store;
    to_ = Advisor.To_store;
  }

let sb_sl =
  {
    pat_name = "store->load (SB side)";
    base =
      {
        Cat.sb with
        Lang.name = "pat-sl";
        threads =
          [
            [ Lang.st "x" 1L; Lang.ld "y" "r1" ];
            [ Lang.st "y" 1L; Lang.fence Lang.F_dmb_full; Lang.ld "x" "r1" ];
          ];
      };
    device_thread = 0;
    from_ = Advisor.From_store;
    to_ = Advisor.To_load;
  }

let patterns = [ mp_ll; lb_ls; mp_ss; sb_sl ]

(* Approaches expressible as value-neutral point edits.  [Data_dep] and
   [Ctrl_dep] are absent by design: the first changes stored values, the
   second is represented by [Addr_dep] in this language. *)
let approaches =
  [
    Ordering.Bar (Barrier.Dmb Full);
    Ordering.Bar (Barrier.Dmb St);
    Ordering.Bar (Barrier.Dmb Ld);
    Ordering.Bar (Barrier.Dsb Full);
    Ordering.Ctrl_isb;
    Ordering.Ldar_acquire;
    Ordering.Stlr_release;
    Ordering.Addr_dep;
  ]

let edit_of_approach (p : pattern) approach =
  let th = p.device_thread in
  let first_is_load = p.from_ = Advisor.From_load in
  let second_is_store = p.to_ = Advisor.To_store in
  let first_reg =
    match List.nth (List.nth p.base.Lang.threads th) 0 with
    | Lang.Load { reg; _ } -> Some reg
    | _ -> None
  in
  match approach with
  | Ordering.Bar (Barrier.Dmb Full) ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_dmb_full })
  | Ordering.Bar (Barrier.Dmb St) ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_dmb_st })
  | Ordering.Bar (Barrier.Dmb Ld) ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_dmb_ld })
  | Ordering.Bar (Barrier.Dsb Full) ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_dsb })
  | Ordering.Ctrl_isb when first_is_load ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_isb })
  | Ordering.Ldar_acquire when first_is_load ->
    Some (P.Make_acquire { thread = th; idx = 0 })
  | Ordering.Stlr_release when second_is_store ->
    Some (P.Make_release { thread = th; idx = 1 })
  | Ordering.Addr_dep when first_is_load -> (
    match first_reg with
    | Some reg -> Some (P.Add_addr_dep { thread = th; idx = 1; reg })
    | None -> None)
  | _ -> None

let test_advisor_agrees_with_enumerator () =
  List.iter
    (fun p ->
      check Alcotest.bool (p.pat_name ^ ": weak outcome reachable bare") true
        (allows p.base);
      List.iter
        (fun approach ->
          match edit_of_approach p approach with
          | None -> ()
          | Some e ->
            let armed = P.apply p.base [ e ] in
            let enum_sufficient = not (allows armed) in
            let advisor_sufficient =
              Advisor.sufficient approach ~from_:p.from_ ~to_:p.to_
            in
            if enum_sufficient <> advisor_sufficient then
              Alcotest.failf "%s with %s: enumerator says %b, advisor says %b"
                p.pat_name (Ordering.to_string approach) enum_sufficient
                advisor_sufficient)
        approaches)
    patterns

(* ---------- search ---------- *)

let test_search_minimal_on_mp () =
  let stripped = Mut.strip_order ~keep_values:true Cat.mp_dmb in
  let s = Search.search stripped in
  check Alcotest.bool "search complete" true s.Search.complete;
  check Alcotest.bool "found repairs" true (s.Search.repairs <> []);
  List.iter
    (fun set ->
      if not (Search.irredundant ~sound:Search.default_sound stripped set) then
        Alcotest.failf "redundant repair [%s]"
          (String.concat "; " (List.map (P.edit_to_string stripped) set)))
    s.Search.repairs;
  (* the hand-written fencing must be among the minimal repairs *)
  let reconstruction =
    [
      P.Insert_fence { thread = 0; pos = 1; fence = Lang.F_dmb_st };
      P.Insert_fence { thread = 1; pos = 1; fence = Lang.F_dmb_ld };
    ]
  in
  check Alcotest.bool "hand fencing rediscovered" true
    (List.exists
       (fun set -> List.sort compare set = List.sort compare reconstruction)
       s.Search.repairs)

let test_search_single_edit_on_wrc () =
  let stripped = Mut.strip_order ~keep_values:true Cat.wrc in
  let s = Search.search stripped in
  check Alcotest.bool "search complete" true s.Search.complete;
  (* the reader's lost address dependency comes back as a 1-edit fix *)
  check Alcotest.bool "single-edit repair exists" true
    (List.exists (fun set -> List.length set = 1) s.Search.repairs)

(* ---------- pilot rewrite ---------- *)

let test_pilot_detects_mp () =
  List.iter
    (fun (t : Lang.test) ->
      match Pilot.rewrite (Mut.strip_order ~keep_values:true t) with
      | None -> Alcotest.failf "%s: MP shape not detected" t.Lang.name
      | Some (_, rewritten) ->
        check Alcotest.bool (t.Lang.name ^ ": rewrite sound") false (allows rewritten);
        check Alcotest.int
          (t.Lang.name ^ ": single shared word")
          1
          (List.length rewritten.Lang.init))
    [ Cat.mp_dmb; Cat.mp_acq_rel; Cat.mp_addr_dep ];
  (* either spelling of stale data, conjuncts in either order or repeated *)
  List.iter
    (fun interesting ->
      check Alcotest.bool "MP predicate matched" true
        (Pilot.detect { Cat.mp with Lang.interesting } <> None))
    [
      Lang.All [ Lang.ne "1:r2" 23L; Lang.eq "1:r1" 1L ];
      Lang.All [ Lang.eq "1:r1" 1L; Lang.eq "1:r2" 0L ];
      Lang.All [ Lang.eq "1:r2" 0L; Lang.eq "1:r1" 1L ];
      Lang.All [ Lang.eq "1:r1" 1L; Lang.ne "1:r2" 23L; Lang.eq "1:r1" 1L ];
    ]

let test_pilot_rejects_non_mp () =
  List.iter
    (fun (t : Lang.test) ->
      match Pilot.detect t with
      | Some _ -> Alcotest.failf "%s: claimed MP-shaped" t.Lang.name
      | None -> ())
    [ Cat.sb; Cat.lb; Cat.coherence; Cat.two_plus_two_w ];
  (* right shape, wrong question: the predicate match must reject *)
  let not_mp = { Cat.mp with Lang.interesting = Lang.All [ Lang.eq "1:r2" 23L ] } in
  check Alcotest.bool "wrong predicate rejected" true (Pilot.detect not_mp = None);
  (* values that do not fit 32 bits cannot be packed *)
  let wide =
    {
      Cat.mp with
      Lang.threads =
        [
          [ Lang.st "data" 0x1_0000_0000L; Lang.st "flag" 1L ];
          [ Lang.ld "flag" "r1"; Lang.ld "data" "r2" ];
        ];
      interesting = Lang.All [ Lang.eq "1:r1" 1L; Lang.ne "1:r2" 0x1_0000_0000L ];
    }
  in
  check Alcotest.bool "wide values rejected" true (Pilot.detect wide = None)

(* ---------- catalogue round trips (the acceptance bar) ---------- *)

let test_catalogue_round_trips () =
  let rts = Fix.catalogue_round_trips ~trials:30 () in
  check Alcotest.bool "several eligible tests" true (List.length rts >= 5);
  List.iter
    (fun (rt : Fix.round_trip) ->
      if not rt.ok then
        Alcotest.failf "%s: sufficient:%b irredundant:%b cost:%b pilot:%b" rt.test_name
          rt.sufficient_ok rt.irredundant_ok rt.cost_ok rt.pilot_ok)
    rts;
  (* every MP-shaped test must be won by the Pilot rewrite *)
  let mp_rts =
    List.filter (fun (rt : Fix.round_trip) -> rt.pilot_expected) rts
  in
  check Alcotest.bool "MP-shaped round trips present" true (List.length mp_rts >= 3);
  List.iter
    (fun (rt : Fix.round_trip) ->
      List.iter
        (fun (platform, (r : Fix.repair)) ->
          if r.kind <> Fix.Pilot then
            Alcotest.failf "%s on %s: winner is %s, not pilot" rt.test_name platform
              r.label)
        rt.outcome.winners)
    mp_rts

(* The JSON report parses and reads back the round trip: keys in order,
   verdict flags, repair labels, winners and every cost exactly. *)
let test_report_json () =
  let module Json = Armb_json.Json in
  let module Report = Armb_synth.Report in
  let parse j =
    match Json.of_string (Json.to_string j) with Ok j -> j | Error e -> Alcotest.fail e
  in
  let keys = function Json.Obj fs -> List.map fst fs | _ -> Alcotest.fail "not an object" in
  let get k conv j = Option.get (Option.bind (Json.member k j) conv) in
  let costs k j =
    List.map
      (fun c -> (get "platform" Json.str c, get "cycles" Json.number c))
      (get k Json.list j)
  in
  let rt = Option.get (Fix.strip_round_trip ~trials:10 Cat.mp_dmb) in
  let o = rt.outcome in
  let cost_pairs = List.map (fun (c : Cost.platform_cost) -> (c.platform, c.cycles)) in
  let check_outcome j =
    check Alcotest.(list string) "outcome keys"
      [ "test"; "already_sound"; "oracle_calls"; "search_complete"; "repairs"; "winners" ]
      (keys j);
    check Alcotest.string "test" o.original.Lang.name (get "test" Json.str j);
    check Alcotest.int "oracle calls" o.oracle_calls (get "oracle_calls" Json.int j);
    check Alcotest.bool "complete" o.search_complete (get "search_complete" Json.bool j);
    let repairs = get "repairs" Json.list j in
    check Alcotest.(list string) "labels"
      (List.map (fun (r : Fix.repair) -> r.label) o.repairs)
      (List.map (get "label" Json.str) repairs);
    check
      Alcotest.(list (list (pair string (float 0.))))
      "repair costs"
      (List.map (fun (r : Fix.repair) -> cost_pairs r.costs) o.repairs)
      (List.map (costs "costs") repairs);
    check
      Alcotest.(list (pair string string))
      "winners"
      (List.map (fun (p, (r : Fix.repair)) -> (p, r.label)) o.winners)
      (match Json.member "winners" j with
      | Some (Json.Obj ws) -> List.map (fun (p, l) -> (p, Option.get (Json.str l))) ws
      | _ -> Alcotest.fail "winners is not an object")
  in
  check_outcome (parse (Report.outcome_json o));
  match parse (Report.round_trips_json [ rt ]) with
  | Json.List [ j ] ->
    check Alcotest.(list string) "round trip keys"
      [
        "test"; "original_costs"; "outcome"; "sufficient_ok"; "irredundant_ok"; "cost_ok";
        "pilot_expected"; "pilot_ok"; "ok";
      ]
      (keys j);
    check Alcotest.string "name" rt.test_name (get "test" Json.str j);
    check
      Alcotest.(list (pair string (float 0.)))
      "original costs" (cost_pairs rt.original_costs) (costs "original_costs" j);
    check Alcotest.(list bool) "flags"
      [ rt.sufficient_ok; rt.irredundant_ok; rt.cost_ok; rt.pilot_expected; rt.pilot_ok; rt.ok ]
      (List.map
         (fun k -> get k Json.bool j)
         [ "sufficient_ok"; "irredundant_ok"; "cost_ok"; "pilot_expected"; "pilot_ok"; "ok" ]);
    check_outcome (get "outcome" Option.some j)
  | _ -> Alcotest.fail "expected a one-element list"

let test_cost_deterministic () =
  let a = Cost.measure ~trials:20 Cat.mp_dmb in
  let b = Cost.measure ~trials:20 Cat.mp_dmb in
  check Alcotest.bool "same program, same cost" true (a = b);
  List.iter
    (fun (c : Cost.platform_cost) ->
      if c.cycles <= 0.0 then Alcotest.failf "%s: non-positive cost" c.platform)
    a

(* ---------- fuzz-repair soak ---------- *)

let test_soak () =
  let r = Soak.run ~tests:15 () in
  if not (Soak.ok r) then
    Alcotest.failf "soak failures: %s" (String.concat " | " r.Soak.failures);
  check Alcotest.bool "repair path exercised" true (r.Soak.repaired >= 1)

let () =
  Alcotest.run "armb_synth"
    [
      ( "mutate",
        [
          Alcotest.test_case "strip keep-values" `Quick test_strip_keep_values;
          Alcotest.test_case "point edits" `Quick test_mutate_point_edits;
        ] );
      ( "isb",
        [
          Alcotest.test_case "enumerator" `Quick test_isb_enumerator;
          Alcotest.test_case "no store order" `Quick test_isb_no_store_order;
          Alcotest.test_case "sim and sanitizer" `Quick test_isb_sim_and_sanitizer;
        ] );
      ( "placement",
        [
          Alcotest.test_case "apply reconstructs" `Quick test_apply_reconstructs;
          Alcotest.test_case "value neutral" `Quick test_candidates_value_neutral;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "agrees with enumerator" `Quick
            test_advisor_agrees_with_enumerator;
        ] );
      ( "search",
        [
          Alcotest.test_case "minimal on MP" `Quick test_search_minimal_on_mp;
          Alcotest.test_case "single edit on WRC" `Quick test_search_single_edit_on_wrc;
        ] );
      ( "pilot",
        [
          Alcotest.test_case "detects MP" `Quick test_pilot_detects_mp;
          Alcotest.test_case "rejects non-MP" `Quick test_pilot_rejects_non_mp;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "catalogue" `Quick test_catalogue_round_trips;
          Alcotest.test_case "cost deterministic" `Quick test_cost_deterministic;
          Alcotest.test_case "json report reads back" `Quick test_report_json;
        ] );
      ("soak", [ Alcotest.test_case "fuzz repair" `Quick test_soak ]);
    ]
