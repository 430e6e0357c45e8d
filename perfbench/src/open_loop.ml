(* Open-loop load over a pair of pipes, from one thread.

   Request i is due at [t0 + i / rate] whether or not earlier requests
   have been answered, so a server that stalls is charged for its stall
   in the latency of every request that fell due meanwhile: latency is
   measured from the due time, never from the (possibly late) send.
   Writes are non-blocking and buffered, so a server that stops reading
   can never block the driver from collecting responses; how late each
   request actually left the driver is recorded separately as the
   validity check on the latency figures.

   With a [tracer], the whole loop is an [open_loop] span, and once
   request [trace_from] has been queued every write is a [driver.send]
   span and every read a [driver.recv] span under it. *)

type result = {
  t0 : float;  (* schedule origin: request i was due at t0 + i / rate *)
  due : float array;
  sent : float array;  (* when the request's last byte was written *)
  received : (float * string) list;  (* every line the server wrote, in arrival order *)
  finished : float;  (* when the server closed its output *)
  timed_out : bool;
}

let buf_size = 65536

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let run ?tracer ?(trace_from = max_int) ~rate ~lines ~req_fd ~resp_fd ~deadline () =
  let n = Array.length lines in
  let t0 = Clock.now () +. 0.005 in
  let due = Array.init n (fun i -> t0 +. (float_of_int i /. rate)) in
  let sent = Array.make n nan in
  Unix.set_nonblock req_fd;
  let out = Buffer.create buf_size in
  let out_off = ref 0 in
  (* bytes of [out] already recycled, so [base + offset] is a position
     in the whole request stream *)
  let base = ref 0 in
  (* (stream position after the request's newline, request index): a
     request counts as sent once the writer has passed its newline *)
  let marks = Queue.create () in
  let chunk = Bytes.create buf_size in
  let partial = Buffer.create 1024 in
  let received = ref [] in
  let eof = ref false in
  let timed_out = ref false in
  let read_available now =
    match restart (fun () -> Unix.read resp_fd chunk 0 buf_size) with
    | 0 -> eof := true
    | k ->
      for j = 0 to k - 1 do
        let c = Bytes.get chunk j in
        if c = '\n' then begin
          received := (now, Buffer.contents partial) :: !received;
          Buffer.clear partial
        end
        else Buffer.add_char partial c
      done
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let next = ref 0 in
  let traced () = if !next > trace_from then tracer else None in
  let req_open = ref true in
  Span.wrap tracer "open_loop" (fun () ->
      while (!req_open || not !eof) && not !timed_out do
        let now = Clock.now () in
        if now > deadline then timed_out := true
        else begin
          while !next < n && due.(!next) <= now do
            Buffer.add_string out lines.(!next);
            Buffer.add_char out '\n';
            Queue.push (!base + Buffer.length out, !next) marks;
            incr next
          done;
          let pending = Buffer.length out - !out_off in
          if !req_open && pending > 0 then begin
            (match
               Span.wrap (traced ()) "driver.send" (fun () ->
                   Unix.single_write_substring req_fd (Buffer.contents out) !out_off pending)
             with
            | k -> out_off := !out_off + k
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
            let now = Clock.now () in
            while (not (Queue.is_empty marks)) && fst (Queue.peek marks) <= !base + !out_off do
              let _, i = Queue.pop marks in
              sent.(i) <- now
            done;
            if !out_off = Buffer.length out then begin
              base := !base + !out_off;
              Buffer.clear out;
              out_off := 0
            end
          end;
          if !req_open && !next = n && Buffer.length out = 0 then begin
            Unix.close req_fd;
            req_open := false
          end;
          let want_write = !req_open && Buffer.length out > 0 in
          let timeout =
            if want_write then 0.05
            else if !next < n then Float.max 0. (due.(!next) -. Clock.now ())
            else deadline -. Clock.now ()
          in
          match
            restart (fun () ->
                Unix.select [ resp_fd ] (if want_write then [ req_fd ] else []) [] (Float.max 0. timeout))
          with
          | r, _, _ ->
            if r <> [] then Span.wrap (traced ()) "driver.recv" (fun () -> read_available (Clock.now ()))
        end
      done);
  if !req_open then Unix.close req_fd;
  {
    t0;
    due;
    sent;
    received = List.rev !received;
    finished = Clock.now ();
    timed_out = !timed_out;
  }
