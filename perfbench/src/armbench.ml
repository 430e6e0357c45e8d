(* armbench: the repository benchmark.

     armbench run --workload W --seed N --seconds S --trace 0|1 [--emit FILE]

   runs one workload and prints, as its last line, the JSON result (see
   Report): the end-to-end metrics, or with --trace 1 the per-layer
   ones.  It exits 1 when a correctness check failed.  --emit writes the
   workload's request stream as NDJSON, replayable with
   [armb serve --batch FILE].  [armbench sut ...] is the process under
   test the workloads spawn. *)

open Perfbench

let workloads = List.map fst Serve_run.serve_workloads

let parse args spec usage =
  Arg.parse_argv ~current:(ref 0) args (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage

let run args =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and emit = ref "" in
  let rate = ref 0. in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: report per-layer metrics");
      ("--emit", Arg.Set_string emit, " write the request stream here");
      ( "--rate",
        Arg.Set_float rate,
        " override a serve workload's fixed rate, in requests/s (capacity probing only)" );
    ]
  in
  parse args spec "armbench run";
  if !seconds < 1 then raise (Arg.Bad "--seconds must be >= 1");
  let trace = !trace = 1 in
  (try Unix.mkdir Serve_run.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let o =
    match List.assoc_opt !workload Serve_run.serve_workloads with
    | Some w ->
      let w = if !rate > 0. then { w with Serve_run.rate = !rate } else w in
      Serve_run.run_serve !workload w ~seed:!seed ~seconds:!seconds ~trace
        ~emit:(if !emit = "" then None else Some !emit)
    | None -> raise (Arg.Bad ("unknown workload " ^ !workload ^ "; one of " ^ String.concat ", " workloads))
  in
  let declared = if trace then Report.per_layer else Report.end_to_end in
  let metrics = Report.select declared o.Report.measured in
  if trace then Report.print_table (!workload ^ " per layer") (List.map (fun x -> (x, "")) metrics);
  print_endline
    (Report.result_line ~correct:o.Report.correct ~attempted:o.Report.attempted ~failed:o.Report.failed metrics);
  if not o.Report.correct then exit 1

let sut args =
  let mode = ref "single" and warm = ref "" in
  let setups = ref 1 and trace_from = ref (-1) and spans = ref "" in
  let spec =
    [
      ("--mode", Arg.Set_string mode, " single | sharded");
      ("--warm", Arg.Set_string warm, " NDJSON to warm the cache with");
      ("--setups", Arg.Set_int setups, " set-ups to time: the first one serves, the others run after serving");
      ("--trace-from", Arg.Set_int trace_from, " trace requests after this line (-1: none)");
      ("--spans", Arg.Set_string spans, " write the spans here");
    ]
  in
  parse args spec "armbench sut";
  let mode = match !mode with "sharded" -> Sut.Sharded | _ -> Sut.Single in
  let opt s = if s = "" then None else Some s in
  Sut.main ~mode ~warm_file:(opt !warm) ~setups:!setups
    ~trace_from:!trace_from ~spans_file:(opt !spans)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let argv = Sys.argv in
  let rest = Array.sub argv 1 (max 0 (Array.length argv - 1)) in
  try
    match rest with
    | [||] -> raise (Arg.Bad "usage: armbench run|sut ...")
    | _ -> (
      let args = Array.append [| argv.(0) |] (Array.sub rest 1 (Array.length rest - 1)) in
      match rest.(0) with
      | "run" -> run args
      | "sut" -> sut args
      | c -> raise (Arg.Bad ("unknown command " ^ c)))
  with
  | Arg.Bad m | Arg.Help m ->
    prerr_endline m;
    exit 2
