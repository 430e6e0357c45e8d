(** A minimal JSON value type with a one-line printer and a recursive
    descent parser — just enough for the service's newline-delimited
    request/response protocol and metrics export, without pulling a
    JSON dependency into the build. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (strings escaped, no embedded
    newlines) — safe to emit as one NDJSON line. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the {!to_string} rendering to a buffer. *)

val of_string : string -> (t, string) result
(** Parse one JSON document.  Trailing garbage, unterminated strings
    and malformed numbers all yield [Error] with a position message. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val str : t -> string option
val int : t -> int option
(** Accepts [Int] and integral [Float]. *)

val number : t -> float option
val bool : t -> bool option
val list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_number : string -> t -> float option
(** [mem_* k j] = accessor composed with {!member}. *)
