(* Seeded request streams for the serve workloads.  Everything here is
   a pure function of the seed: the same seed gives byte-identical
   request lines, so a run's traffic can be written out as NDJSON and
   replayed with [armb serve --batch]. *)

module Gen = Armb_soak.Gen
module Json = Armb_service.Json

(* The soak generator's Zipf stream (alpha 1.1, default pool and
   clients): a few hot keys dominate.

   The generator builds its pool from its own seed, and four of the 48
   jobs are fuzzed programs whose optimisation cost differs up to
   sevenfold from one generator seed to another.  So the stream always
   comes from one fixed generator seed, and every run serves the same 48
   jobs; [seed] picks where in that stream a run starts.  The whole
   prefix is generated every time, so set-up costs the same for every
   seed. *)
let generator_seed = 1

let pos_mod a b = ((a mod b) + b) mod b

let windows = 16

let window_size = 1024

let zipf ~seed ~requests =
  let prefix = (windows * window_size) + requests in
  let jobs = Array.of_list (Gen.stream ~requests:prefix ~seed:generator_seed ()) in
  Array.sub jobs (pos_mod seed windows * window_size) requests

let fields line =
  match Json.of_string line with
  | Ok (Json.Obj fs) -> fs
  | Ok _ | Error _ -> invalid_arg ("Traffic: not a JSON object: " ^ line)

(* The fields that change what a request computes: everything but the
   id, the client and the priority. *)
let job_part line =
  Json.to_string
    (Json.Obj
       (List.filter (fun (k, _) -> k <> "id" && k <> "client" && k <> "priority") (fields line)))

(* The stream's own pool: the first request for each distinct job, in
   stream order.  Warming a cache with it makes every later request of
   the stream a hit. *)
let pool (jobs : Gen.job array) =
  let seen = Hashtbl.create 64 in
  Array.to_list jobs
  |> List.filter (fun (j : Gen.job) ->
         let k = job_part j.Gen.line in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)

(* Cold traffic: the same job mix, but the [j]-th request for a pool
   entry runs at RNG seed [cold_seed + j], so no two requests share a
   key and none matches a key the engine has seen.  The seed is a run
   coordinate, so this keeps every job's kind, test and parameters.

   Most kinds' invariants hold at any seed by construction.  A check
   job's Check_clean verdict instead rests on its run configuration: a
   stripped race must surface within the job's 10 trials.  So a check
   entry only ever runs at the first [check_seeds] cold seeds, where
   the tests prove the verdict for every check entry, and a stream
   that would need more is refused.  A 60 s run at the cold rate needs
   fewer than 800. *)
let with_seed line seed =
  let fs = List.filter (fun (k, _) -> k <> "seed") (fields line) in
  Json.to_string (Json.Obj (fs @ [ ("seed", Json.Int seed) ]))

let cold_seed = 1_000_000

let check_seeds = 1024

let uncached ~seed ~requests ~offset =
  let jobs = zipf ~seed ~requests:(offset + requests) in
  let seen = Hashtbl.create 64 in
  let cold =
    Array.init (offset + requests) (fun i ->
        let j = jobs.(i) in
        let k = job_part j.Gen.line in
        let occ = Option.value ~default:0 (Hashtbl.find_opt seen k) in
        Hashtbl.replace seen k (occ + 1);
        if j.Gen.kind = "check" && occ >= check_seeds then
          invalid_arg
            (Printf.sprintf "Traffic.uncached: a check job would need more than %d cold seeds" check_seeds);
        { j with Gen.line = with_seed j.Gen.line (cold_seed + occ) })
  in
  Array.sub cold offset requests

let write_ndjson path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let read_ndjson path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []
