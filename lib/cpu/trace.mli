(** Execution tracing: collect per-core timed spans from a simulation
    and export them in the Chrome trace-event format (load the file at
    chrome://tracing or https://ui.perfetto.dev).

    Attach a collector to a machine before spawning threads:
    {[
      let tr = Trace.create () in
      let m = Machine.create ~tracer:(Trace.emit tr) cfg in
      ...
      Armb_service.Out.write ~path:"run.json"
        (Armb_json.Json.to_string (Trace.to_chrome_json tr))
    ]} *)

type span = {
  core : int;
  kind : string;  (** "load" / "store" / "barrier" / "rmw" / "compute" / "spin" *)
  name : string;  (** e.g. the barrier mnemonic or target address *)
  start_cycle : int;
  duration : int;
}

type t

val create : ?limit:int -> unit -> t
(** [limit] caps collected spans (default 200_000); further spans are
    counted but dropped. *)

val emit : t -> span -> unit

val spans : t -> span list
(** In emission order. *)

val dropped : t -> int

val to_chrome_json : t -> Armb_json.Json.t
(** Chrome trace-event JSON: one complete event per span, one track per
    simulated core, timestamps in simulated cycles. *)
