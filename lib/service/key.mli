(** Canonical content-addressed keys for service jobs.

    Two requests must coalesce onto one computation exactly when they
    denote the same computation, so the key must not depend on
    presentation details: test and register {e names}, shared-variable
    names, or the order of [init] bindings.  [canonical_test] produces a
    normal form that is invariant under

    - renaming registers (per thread) and shared variables,
    - permuting the [init] binding list,
    - dropping/adding explicit [= 0] initial bindings, and
    - reordering or repeating the predicate's atoms,

    while still separating genuinely different programs: the
    instruction sequences, fences, dependency shapes, initial values,
    model expectations and the outcome predicate (its atoms, keys
    renamed with the program) all feed the serialization.  Predicates
    are keyed by their syntax, so two that are written differently but
    agree on every reachable outcome only miss the cache; they can
    never coalesce wrongly.

    The job key then appends the non-test coordinates that change the
    computation's result: platform, core binding, seed, trial count,
    job kind and parameters, and the fault intensity. *)

val canonical_test : Armb_litmus.Lang.test -> string
(** Name-independent canonical serialization of a litmus test,
    predicate included. *)

val canonical_program : Armb_litmus.Cfg.program -> string
(** Structural serialization of a CFG program (blocks, terminators,
    sorted init, expectation flags, predicate) for keying [Opt] jobs.
    No renaming pass: a hand-renamed variant only misses the cache, it
    can never coalesce wrongly. *)

val digest : string -> string
(** Hex MD5 of a canonical serialization — the content address. *)
