(* The result line and the human-readable report above it.

   The last line of standard output is one JSON object: [correct],
   [attempted], [failed] and [metrics] -- the end-to-end metrics on an
   untraced run, the per-layer metrics on a traced one.  Everything
   else the run prints (bases, sample counts, per-workload extras) goes
   on the lines before it. *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* What one run produced: every figure it measured, and its checks. *)
type outcome = { measured : metric list; correct : bool; attempted : int; failed : int }

let kinds = [ "litmus"; "check"; "model"; "ring"; "fuzz"; "fix"; "perturb"; "opt" ]

let end_to_end =
  [
    ("latency_p50_ms", "ms");
    ("goodput_rps", "req/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("codec.decode_us", "us");
    ("key.us", "us");
    ("key.enumerate_us", "us");
    ("engine.submit_us", "us");
    ("codec.encode_us", "us");
    ("engine.hit_ratio", "ratio");
    ("shard.route_hash_us", "us");
    ("shard.hop_us", "us");
    ("shard.router_shed", "count");
  ]
  @ List.concat_map (fun k -> [ ("run." ^ k ^ "_ms", "ms"); ("run." ^ k ^ "_n", "count") ]) kinds
  @ [
      ("enumerate.us_per_test", "us");
      ("engine.compute_p50_us", "us");
      ("engine.compute_p99_us", "us");
      ("engine.wait_p50_ms", "ms");
      ("engine.queue_depth_peak", "count");
      ("engine.completed", "count");
      ("engine.shed", "count");
      ("engine.errors", "count");
    ]
  @ List.concat_map
      (fun p ->
        [
          ("sim." ^ p ^ ".host_s", "s");
          ("sim." ^ p ^ ".ns_per_event", "ns");
          ("sim." ^ p ^ ".events", "count");
          ("sim." ^ p ^ ".cycles", "count");
        ])
      Sim_slice.parts
  @ [
      ("machine.create_us", "us");
      ("gc.minor_mwords", "Mwords");
      ("gc.major_collections", "count");
      ("driver.late_ms_max", "ms");
      ("driver.late_ms_p99", "ms");
      ("trace.overhead_ratio", "ratio");
    ]

(* Every number with all its digits; JSON has no NaN, so an undefined
   figure is null (and flagged in the report). *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metrics_json ms =
  String.concat ","
    (List.map
       (fun x ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
           (Armb_service.Json.to_string (Armb_service.Json.Str x.name))
           (number x.value)
           (Armb_service.Json.to_string (Armb_service.Json.Str x.unit_)))
       ms)

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct attempted
    failed (metrics_json ms)

(* Pick the declared metrics, in declaration order, from everything a
   run measured.  Each metric has exactly one source: a declared metric
   the run did not produce, or produced twice, is a bug in the
   benchmark, not a figure. *)
let select declared (measured : metric list) =
  List.map
    (fun (name, unit_) ->
      match List.filter (fun x -> x.name = name) measured with
      | [ x ] when x.unit_ = unit_ -> x
      | [ x ] -> failwith (Printf.sprintf "metric %s measured in %s, declared in %s" name x.unit_ unit_)
      | [] -> failwith ("metric not measured: " ^ name)
      | _ -> failwith ("metric measured twice: " ^ name))
    declared

let print_table title rows =
  Printf.printf "== %s ==\n" title;
  List.iter (fun (x, note) -> Printf.printf "  %-26s %16.6g %-7s %s\n" x.name x.value x.unit_ note) rows
