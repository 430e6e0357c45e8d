type t = {
  fd : Unix.file_descr;
  read : bytes -> int -> int -> int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable scan : int;  (* bytes before this hold no '\n' *)
  mutable stop : int;  (* end of the bytes read so far *)
  mutable eof : bool;
}

let create ?(size = 65536) ?read fd =
  let read = match read with Some r -> r | None -> Unix.read fd in
  { fd; read; buf = Bytes.create (max 1 size); start = 0; scan = 0; stop = 0; eof = false }

type event = Line of string | Idle | Eof

(* The next complete line in the buffer, or the final unterminated one
   once the input has ended. *)
let take_line t =
  let rec find i = if i >= t.stop then None else if Bytes.get t.buf i = '\n' then Some i else find (i + 1) in
  let cut upto resume =
    let line = Bytes.sub_string t.buf t.start (upto - t.start) in
    t.start <- resume;
    t.scan <- resume;
    Some line
  in
  match find t.scan with
  | Some i -> cut i (i + 1)
  | None ->
    t.scan <- t.stop;
    if t.eof && t.start < t.stop then cut t.stop t.stop else None

let interrupted = function Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK -> true | _ -> false

let ready t timeout =
  match Unix.select [ t.fd ] [] [] (if timeout = infinity then -1. else Float.max 0. timeout) with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (e, _, _) when interrupted e -> false

(* One read into the free end of the buffer, after moving the unconsumed
   bytes to the front or growing it for a line longer than the buffer.
   [false]: the read was interrupted or would block. *)
let fill t =
  if t.start > 0 then begin
    Bytes.blit t.buf t.start t.buf 0 (t.stop - t.start);
    t.stop <- t.stop - t.start;
    t.scan <- t.scan - t.start;
    t.start <- 0
  end;
  if t.stop = Bytes.length t.buf then begin
    let bigger = Bytes.create (2 * Bytes.length t.buf) in
    Bytes.blit t.buf 0 bigger 0 t.stop;
    t.buf <- bigger
  end;
  match t.read t.buf t.stop (Bytes.length t.buf - t.stop) with
  | 0 ->
    t.eof <- true;
    true
  | k ->
    t.stop <- t.stop + k;
    true
  | exception Unix.Unix_error (e, _, _) when interrupted e -> false

let rec next t ~timeout =
  match take_line t with
  | Some line -> Line line
  | None when t.eof -> Eof
  | None -> if ready t timeout && fill t then next t ~timeout:0. else Idle
