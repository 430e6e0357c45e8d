(** The Pilot rewrite (paper §4) as a synthesis candidate.

    When a test is message-passing shaped — one thread publishes a data
    word then a flag word, the other polls the flag then reads the data
    — and both payloads fit in 32 bits, the two variables can be packed
    into one aligned 64-bit word.  Single-copy atomicity then publishes
    data and flag together, so the repaired test needs {e no} ordering
    device at all: a single plain store against a single plain load.

    Detection is structural on both the threads and the [interesting]
    predicate.  The predicate's normal form
    ({!Armb_litmus.Lang.normalize}, the form {!Armb_service.Key} keys)
    must be exactly the MP question, two atoms in either order: the
    flag register equals the published flag, and the data register
    differs from the published data or equals its initial value. *)

module Lang = Armb_litmus.Lang

type shape = {
  data_var : string;
  flag_var : string;
  data_val : int64;
  flag_val : int64;
  producer : int;  (** thread index of the publishing side *)
  consumer : int;
}

val detect : Lang.test -> shape option
(** [None] unless the test is two-threaded MP with constant stores,
    distinct variables and registers, 32-bit-representable values and
    an MP predicate (matched as described above).  Existing fences /
    acquire-release / dependencies on either side are ignored:
    the rewrite replaces the whole communication pattern. *)

val rewrite : Lang.test -> (shape * Lang.test) option
(** The packed single-word test, named ["<name>+pilot"].  Its
    [interesting] predicate is the packed translation of the weak
    outcome (high half equals the flag, low half differs from the
    data), and its expectations are forbidden-everywhere — which
    {!Armb_litmus.Enumerate} re-verifies downstream, the rewrite is not
    trusted blindly. *)

val word_var : string
(** Name of the packed variable (["word"], suffixed if the test already
    uses it). *)
