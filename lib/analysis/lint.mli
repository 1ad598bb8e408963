(** Compiler-libs AST lint enforcing the project's interface rules.

    Rules (see {!Policy} for how state opts in):

    - {b R1 single-writer ownership} — a record field named in the
      policy ([own]/[shared]) may be assigned ([<-]) only in its
      declared writer files. This is the paper's lock-free discipline
      (each descriptor-queue pointer has exactly one writer; the other
      side reads a shadow) as machine-checked policy. An [own] or
      [shared] entry whose field no record under the linted roots
      declares is itself a violation: a stale entry guards nothing.
    - {b R2 no Obj} — no reference to the [Obj] module: unsafe casts
      could forge descriptors or silently break the ownership model.
    - {b R3 no catch-all / exit} — no [try ... with] arm whose pattern
      matches every exception, and no calls to [exit], in library code:
      either can swallow an [Invariants] violation mid-experiment.
    - {b R4 interfaces} — every [.ml] under a scanned root ships a
      sibling [.mli], so the abstraction boundary the ownership rules
      rely on actually exists.
    - {b R8 no polymorphic min/max} — no reference to Stdlib's [min] or
      [max], bare or qualified: each call is a polymorphic compare in C,
      even on ints. [Int.min]/[Int.max] are int compares; a float
      minimum is written out as the compare it needs.

    The lint is purely syntactic (it parses with the compiler's own
    parser but does not type), so it runs on any tree state and costs
    milliseconds. *)

type violation = { rule : string; file : string; line : int; message : string }

val pp_violation : Format.formatter -> violation -> unit
(** [file:line: [rule] message] — the grep-able one-line form. *)

val check_file : Policy.t -> string -> violation list
(** Lint one [.ml] file (rules R1–R3 and R8; unparseable files yield a
    single [R0] violation). *)

val check_missing_mli : Policy.t -> string -> violation list
(** Rule R4 over one directory root, recursively. *)

val check_tree : Policy.t -> string list -> violation list
(** All rules over the given roots (directories are walked recursively;
    arguments naming a single [.ml] file are linted directly), stale
    [own]/[shared] entries included. Results are sorted by file then
    line. *)
