(** Newline-delimited input read straight from a file descriptor, with
    its own buffer, so a caller can ask whether a complete line is ready
    {e now} without blocking, or wait for one with a timeout.

    [input_line] cannot answer that question: it blocks until a line or
    end of input arrives, and a channel's buffer is not visible from
    outside it.  The streaming serve loops need the answer to decide
    between reading more input and answering what is already pending.

    Lines are yielded exactly as [input_line] yields them on the same
    bytes: the ['\n'] is dropped, a ['\r'] before it is kept, and a final
    line without ['\n'] is still a line. *)

type t

val create : ?size:int -> ?read:(bytes -> int -> int -> int) -> Unix.file_descr -> t
(** A reader over [fd].  [size] (default 65536) is the initial buffer;
    it grows to hold a longer line.  [read] (default [Unix.read fd])
    lets a test cut the input into chosen pieces or inject
    [EINTR]/[EAGAIN]; readiness is still asked of [fd] with
    [Unix.select].  A reader over a channel's descriptor skips whatever
    the channel has already buffered. *)

type event =
  | Line of string  (** the next line, without its ['\n'] *)
  | Idle  (** no complete line is ready yet *)
  | Eof  (** the input has ended and every line has been yielded *)

val next : t -> timeout:float -> event
(** The next line if one is buffered or can be read without waiting;
    otherwise wait at most [timeout] seconds ([0.] polls, [infinity]
    blocks) for input to arrive.  [Idle] may come before [timeout] has
    passed: when only part of a line arrived, or when a wait or read was
    interrupted ([EINTR]) or would block ([EAGAIN]).  Callers loop. *)
