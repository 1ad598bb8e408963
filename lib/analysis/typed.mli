(** olint's rules (R1–R10) over the compiler's [.cmt] and [.cmti]
    artifacts.

    The passes load the typedtree the normal dune build already wrote
    ([-bin-annot] is always on), so they see resolved module paths,
    inferred types, and attributes. See {!Policy} for how state opts in.

    - {b R1 — single-writer ownership.} A record field named in the
      policy ([own]/[shared]) may be assigned ([<-]) only in its
      declared writer files. This is the paper's lock-free discipline
      (each descriptor-queue pointer has exactly one writer; the other
      side reads a shadow) as machine-checked policy. An [own] or
      [shared] entry whose field no record type of a scanned unit
      declares is itself a violation: a stale entry guards nothing.
    - {b R2 — no Obj.} No reference to Stdlib's [Obj], directly or
      through a module alias: unsafe casts could forge descriptors or
      silently break the ownership model.
    - {b R3 — no catch-all, no exit.} No [try ... with] arm whose
      pattern matches every exception (a wildcard or a variable, under
      an alias or an or-pattern, without a guard), and no call to
      Stdlib's [exit]: either can swallow an [Invariants] violation
      mid-experiment.
    - {b R4 — interfaces.} Every scanned unit ships a [.mli], so the
      abstraction boundary the ownership rules rely on exists. Dune's
      generated library wrappers are not judged.
    - {b R5 — hot-path allocation freedom.} Every [hot <file>:<fn>]
      policy entry must be transitively allocation-free: no closure,
      tuple, record, array, or non-constant constructor construction;
      no boxed float/int64 bindings; no partial applications; no calls
      into functions that are neither analyzable, listed [alloc-free]
      in the policy, nor on the built-in primitive safe-list. The
      escape hatch is [[@osiris.alloc_ok "why"]] on the expression or
      binding — the justification string is mandatory.
    - {b R6 — no wall clock.} No scanned unit may refer to a function
      the policy lists as [wall-clock]: simulated code reads only the
      engine's clock. A reference is resolved through aliases and
      [open]s, so [open Unix] cannot hide one. No escape hatch.
    - {b R7 — conservation coverage.} Every [Metrics.counter]
      registration in the scanned tree must have its final name
      component read (as a record field or accessor call) inside at
      least one [coverage-fn] function, or carry an [uncovered] policy
      entry with a justification.
    - {b R8 — no polymorphic min/max.} No reference to Stdlib's [min]
      or [max], bare, qualified or through a module alias: each call is
      a polymorphic compare in C, even on ints. [Int.min]/[Int.max] are
      int compares; a float minimum is written out as the compare it
      needs. A unit's own [min] is not Stdlib's.
    - {b R9 — every export has a caller.} Every value a scanned [.mli]
      exports must be referenced from another compilation unit (any
      [.cmt] under the root counts: libraries, binaries, benchmarks,
      examples, tests), resolving paths through [module M = ...] and
      [let module M = ... in] aliases and dune's wrapper modules. Every
      optional parameter of an exported function must be passed (or
      forwarded as [?x]) by at least one call. No escape hatch.
    - {b R10 — every exported label is read.} Every label of a record
      type a scanned [.mli] declares must be read somewhere, by a field
      access or a record pattern, in any unit, its own included; a
      [mutable] one must also be assigned somewhere. Construction,
      [{ r with ... }], [=] and [compare] read no label. Type paths
      resolve as R9's value paths do, and a manifest re-export
      ([type t = M.t = {...}]) has no labels of its own: a read through
      it reads [M.t]'s. No escape hatch.

    R1–R3, R6 and R8–R10 share one walk of every unit. [allow]
    entries exempt a file from R2 ([obj]), R3 ([catchall], [exit]) or
    R4 ([no-mli]). Stale-policy rot is itself an error: beside R1's
    stale [own]/[shared] entries, a [hot] entry naming a file or
    function that no longer exists is reported as an R5 violation, and
    an [uncovered] entry that matches no registered counter as an R7
    violation. *)

type violation = { rule : string; file : string; line : int; message : string }

val pp_violation : Format.formatter -> violation -> unit
(** [file:line: [rule] message] — the grep-able one-line form. *)

val check_tree : Policy.t -> cmt_root:string -> violation list
(** Run R1–R10 over every [.cmt] and [.cmti] found under [cmt_root]
    (typically [_build/default]). All loaded modules participate in
    call and reference resolution; verdicts apply only to modules whose
    recorded source file lives under a policy [scan] root, and R5 roots
    are the policy's [hot] entries. Results are sorted by file, line,
    rule. *)
