(** Typed analysis passes (R5–R7, R9, R10) over the compiler's [.cmt]
    and [.cmti] artifacts.

    Where the syntactic lint ({!Lint}, R1–R4) pattern-matches the
    parsetree, these passes load the typedtree the normal dune build
    already wrote ([-bin-annot] is always on), so they see resolved
    module paths, inferred types, and attributes:

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
      engine's clock. A reference is resolved on R9's walk, through
      aliases and [open]s, so [open Unix] cannot hide one. No escape
      hatch.
    - {b R7 — conservation coverage.} Every [Metrics.counter]
      registration in the scanned tree must have its final name
      component read (as a record field or accessor call) inside at
      least one [coverage-fn] function, or carry an [uncovered] policy
      entry with a justification.
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

    Stale-policy rot is itself an error: a [hot] entry naming a file or
    function that no longer exists is reported as an R5 violation, and
    an [uncovered] entry that matches no registered counter as an R7
    violation. *)

type violation = Lint.violation = {
  rule : string;
  file : string;
  line : int;
  message : string;
}

val check_tree : Policy.t -> cmt_root:string -> violation list
(** Run R5/R6/R7/R9/R10 over every [.cmt] and [.cmti] found under
    [cmt_root] (typically [_build/default]). All loaded modules
    participate in call and reference resolution; R6/R7/R9/R10 verdicts
    apply only to modules whose recorded source file lives under a
    policy [scan] root, and R5 roots are the policy's [hot] entries.
    Results are sorted by file, line, rule. *)
