(* In-memory span recorder.  A span has a name, a start, an end, a
   parent (the span open when it began) and a request id.  Spans are
   only appended while tracing; they are aggregated or written out once
   the run has ended. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (* index of the enclosing span, -1 at the root *)
  req : int;  (* request id, -1 when the span serves no single request *)
}

type t = { mutable spans : span array; mutable n : int; mutable open_ : int list }

let create () = { spans = [||]; n = 0; open_ = [] }

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 256 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

let enter ?(req = -1) t name =
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let id = push t { name; start = Clock.now (); stop = nan; parent; req } in
  t.open_ <- id :: t.open_;
  id

let leave t id =
  t.spans.(id).stop <- Clock.now ();
  match t.open_ with
  | top :: rest when top = id -> t.open_ <- rest
  | _ -> invalid_arg "Span.leave: spans must close innermost first"

let with_ ?req t name f =
  let id = enter ?req t name in
  Fun.protect ~finally:(fun () -> leave t id) f

(* Tracing is optional everywhere: [None] runs [f] bare. *)
let wrap ?req tr name f = match tr with None -> f () | Some t -> with_ ?req t name f

(* Add an already-closed span with an explicit parent. *)
let add ?(req = -1) t name ~start ~stop ~parent = push t { name; start; stop; parent; req }

(* Add an already-closed span (an interval measured elsewhere, such as
   a request's open-loop latency) under the currently open span. *)
let record ?req t name ~start ~stop =
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  ignore (add ?req t name ~start ~stop ~parent)

let spans t = Array.sub t.spans 0 t.n

(* Self time: a span's duration minus the durations of its children. *)
let self_times t =
  let dur s = s.stop -. s.start in
  let self = Array.init t.n (fun i -> dur t.spans.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.spans.(i).parent in
    if p >= 0 then self.(p) <- self.(p) -. dur t.spans.(i)
  done;
  self

type agg = { count : int; total_s : float; self_s : float }

(* Per-name totals, in first-seen order. *)
let aggregate t =
  let self = self_times t in
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let a =
      match Hashtbl.find_opt tbl s.name with
      | Some a -> a
      | None ->
        order := s.name :: !order;
        { count = 0; total_s = 0.; self_s = 0. }
    in
    Hashtbl.replace tbl s.name
      { count = a.count + 1; total_s = a.total_s +. (s.stop -. s.start); self_s = a.self_s +. self.(i) }
  done;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let write_ndjson t path =
  let oc = open_out path in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,\"req\":%d}\n" i
        (Armb_service.Json.to_string (Armb_service.Json.Str s.name))
        s.start s.stop s.parent s.req)
    (spans t);
  close_out oc
