type span = {
  core : int;
  kind : string;
  name : string;
  start_cycle : int;
  duration : int;
}

type t = { mutable rev_spans : span list; mutable count : int; limit : int; mutable drop : int }

let create ?(limit = 200_000) () = { rev_spans = []; count = 0; limit; drop = 0 }

let emit t s =
  if t.count < t.limit then begin
    t.rev_spans <- s :: t.rev_spans;
    t.count <- t.count + 1
  end
  else t.drop <- t.drop + 1

let spans t = List.rev t.rev_spans

let dropped t = t.drop

module Json = Armb_json.Json

let to_chrome_json t : Json.t =
  let event s =
    Json.Obj
      [
        ("name", Str s.name);
        ("cat", Str s.kind);
        ("ph", Str "X");
        ("pid", Int 0);
        ("tid", Int s.core);
        ("ts", Int s.start_cycle);
        ("dur", Int (max 1 s.duration));
      ]
  in
  Obj [ ("traceEvents", List (List.map event (spans t))); ("displayTimeUnit", Str "ns") ]
