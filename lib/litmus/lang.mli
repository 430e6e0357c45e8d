(** A tiny litmus-test language shared by the exhaustive enumerator and
    the timing-simulator runner.

    Registers are named per thread; in outcome predicates they are
    addressed as ["<thread>:<reg>"] (e.g. ["1:r2"]).  Dependencies are
    explicit: a store whose value is [Reg r] is data-dependent on the
    load that wrote [r]; [addr_dep] adds a (bogus) address dependency.
    Control dependency to a store has the same ordering force as a
    dependency here and is expressed with [addr_dep]; control+ISB is
    first-class as the {!fence} [F_isb] (a conditional branch on a prior
    loaded value followed by an ISB, which orders every earlier load
    before everything later — the paper's CTRL+ISB row of Table 3). *)

type reg = string

type value = Const of int64 | Reg of reg

type fence =
  | F_dmb_full
  | F_dmb_st
  | F_dmb_ld
  | F_dsb
  | F_isb
      (** control dependency + ISB: orders prior loads before all later
          accesses (load->load and load->store), never store->anything *)

type instr =
  | Load of { var : string; reg : reg; acquire : bool; addr_dep : reg option }
  | Store of { var : string; v : value; release : bool; addr_dep : reg option }
  | Fence of fence

type thread = instr list

(** {2 Outcome predicates}

    A weak-outcome predicate is data: trivially false, or a conjunction
    of atoms.  Each atom compares one outcome binding — ["thread:reg"]
    or ["mem:var"], unset bindings reading 0 — or its high or low
    32-bit half with a constant. *)

type part = Word | Hi | Lo  (** the whole value, or its high / low 32 bits *)

type atom = { key : string; part : part; eq : bool; value : int64 }
(** [eq = true] tests [part key = value], [false] tests [<>]. *)

type pred = Never | All of atom list

val eq : ?part:part -> string -> int64 -> atom
val ne : ?part:part -> string -> int64 -> atom

val ops : (string * (part * bool)) list
(** The comparisons' names, the one spelling the wire and the job key
    share: ["="] and ["!="] on the whole value, ["hi="], ["hi!="],
    ["lo="] and ["lo!="] on its high or low half. *)

val op_name : atom -> string
(** The name in {!ops} of the atom's comparison. *)

val eval : pred -> (string -> int64) -> bool
(** [eval p lookup]: [Never] is false; [All atoms] holds when every
    atom does, reading bindings through [lookup]. *)

val map_keys : (string -> string) -> pred -> pred
(** Rename every atom's binding key. *)

val normalize : pred -> pred
(** The predicate's normal form: atoms sorted, repeats dropped.
    Conjunct order and repetition are presentation, so anything that
    inspects a predicate's structure reads this form. *)

type binding = Thread_reg of int * string | Mem_var of string

val binding_of_key : string -> binding option
(** Parse an outcome binding key: ["<thread>:<reg>"], the thread a
    canonical non-negative decimal, or ["mem:<var>"]; names are
    non-empty.  [None] for any other key. *)

type test = {
  name : string;
  description : string;
  init : (string * int64) list;  (** shared variables and initial values *)
  threads : thread list;
  interesting : pred;  (** the "weak" outcome predicate *)
  expect_tso : bool;  (** does TSO allow the interesting outcome? *)
  expect_wmm : bool;  (** does ARM's WMM allow it? *)
}

(** {2 Convenience constructors} *)

val ld : ?acquire:bool -> ?addr_dep:reg -> string -> reg -> instr
val st : ?release:bool -> ?addr_dep:reg -> string -> int64 -> instr
val st_reg : ?release:bool -> string -> reg -> instr
val fence : fence -> instr

val vars : test -> string list
(** All shared variables, including ones only referenced by threads. *)

val regs_of_thread : thread -> reg list
(** Registers written by the thread's loads, in program order. *)

val writes_reg : instr -> reg option
val reads_regs : instr -> reg list
val fence_to_string : fence -> string
val pp_instr : Format.formatter -> instr -> unit
