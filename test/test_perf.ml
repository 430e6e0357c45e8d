(* Tests for the perf harness's JSON: the baseline loader reads the
   committed pretty-printed BENCH_perf.json and the single-line files
   written now, rejects a truncated file with the parser's position,
   and reads a file without "fault" as faults-off. *)

module Perf = Armb_perf.Perf
module Json = Armb_json.Json

let check = Alcotest.check

let with_file text f =
  let path = Filename.temp_file "armb_perf" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let sample =
  Alcotest.testable
    (fun ppf (s : Perf.sample) ->
      Format.fprintf ppf "%s %d %h %h" s.name s.events s.wall_s s.events_per_sec)
    ( = )

let results = Alcotest.(triple string string (list sample))
let triple (r : Perf.results) = (r.mode, r.fault, r.samples)

let load path =
  match Perf.load_json ~path with Ok r -> r | Error e -> Alcotest.fail e

(* What the earlier line-scanning loader read from the committed file. *)
let test_committed_baseline () =
  let s name events wall_s events_per_sec = { Perf.name; events; wall_s; events_per_sec } in
  check results "BENCH_perf.json"
    ( "quick",
      "none",
      [
        s "fig3-slice" 449172 0.525805 854255.9;
        s "litmus-catalogue" 79118 0.748190 105745.8;
        s "fig6a-ring" 279988 0.464519 602748.2;
        s "fuzz-round" 23376 0.277019 84384.1;
        s "serve-cold" 65440 0.264309 247589.1;
        s "serve-warm" 65440 0.029910 2187890.6;
        s "serve-zipf-warm" 24537 0.059517 412269.4;
        s "serve-sharded-cold" 24537 0.240418 102059.8;
        s "serve-sharded-warm" 24537 0.039911 614792.4;
        s "many-core-central" 1536 0.001364 1126105.7;
        s "many-core-tree" 1704 0.011404 149420.8;
      ] )
    (triple (load "../BENCH_perf.json"))

let test_truncated_rejected () =
  let text = In_channel.with_open_bin "../BENCH_perf.json" In_channel.input_all in
  with_file (String.sub text 0 (String.length text / 2)) (fun path ->
      match Perf.load_json ~path with
      | Ok _ -> Alcotest.fail "a truncated baseline must not load"
      | Error e ->
        check Alcotest.bool ("position message: " ^ e) true
          (String.starts_with ~prefix:"json: " e));
  match Perf.load_json ~path:"no-such-baseline.json" with
  | Ok _ -> Alcotest.fail "a missing baseline must not load"
  | Error _ -> ()

(* Floats that the old %.6f/%.1f rendering would have cut come back
   exactly through the one-line writer. *)
let test_round_trip () =
  let r =
    {
      Perf.mode = "full";
      fault = "perf-0.25";
      samples =
        [
          { name = "a"; events = 12345; wall_s = 0.1234567891; events_per_sec = 1234567.5 };
          { name = "b \"q\""; events = 0; wall_s = 1e-9; events_per_sec = 0. };
        ];
    }
  in
  with_file (Json.to_string (Perf.to_json r)) (fun path ->
      check results "round trip" (triple r) (triple (load path)))

let test_no_fault_is_faults_off () =
  with_file
    {|{"mode":"quick","workloads":[{"name":"x","events":1,"wall_s":0.5,"events_per_sec":2.0}]}|}
    (fun path -> check Alcotest.string "fault" "none" (load path).Perf.fault)

let () =
  Alcotest.run "armb_perf"
    [
      ( "baseline",
        [
          Alcotest.test_case "committed file loads" `Quick test_committed_baseline;
          Alcotest.test_case "truncated file rejected" `Quick test_truncated_rejected;
          Alcotest.test_case "to_json round trip" `Quick test_round_trip;
          Alcotest.test_case "no fault key is faults-off" `Quick test_no_fault_is_faults_off;
        ] );
    ]
