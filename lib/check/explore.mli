(** Exhaustive and randomized schedule exploration.

    The paper's lock-free host/board protocol is argued correct for {e
    every} interleaving of single-word accesses; the repo's tests only
    ever run the engine's FIFO schedule. This module drives a scenario
    under many same-instant orderings instead — bounded depth-first
    enumeration or seeded random walks over the engine's choice points —
    asserting the scenario's invariants at every choice point and at the
    end of every run. A failure comes back with the {!Schedule.t} that
    produced it, which {!replay} re-executes deterministically.

    Scope: this explores orderings of {e engine callbacks} at equal
    timestamps. Code holding the discipline (one callback = one atomic
    protocol step) is exactly the code the paper's argument covers;
    multi-callback (torn) updates are what the checker exists to catch. *)

type checks = {
  check : unit -> string list;
      (** Invariant probe run at every choice point (between callbacks,
          never mid-callback). Non-empty = violations; the run aborts. *)
  at_end : unit -> string list;
      (** Probe run once after the engine drains (or hits the event
          bound): quiescence checks, conservation, liveness. *)
}

type scenario = Osiris_sim.Engine.t -> checks
(** A scenario builds its world on a fresh engine (spawning processes,
    scheduling events) and returns its invariant probes. It must be a
    pure function of the engine: exploration re-runs it many times. *)

type failure = {
  schedule : Schedule.t;
      (** Picks taken before the violation — feed to {!replay}. *)
  violations : string list;
  at : [ `Choice_point of int | `End ];
}

val pp_failure : Format.formatter -> failure -> unit

val replay : scenario -> Schedule.t -> failure option
(** Re-execute a recorded counterexample: follow the schedule at the
    first choice points, FIFO (pick 0) beyond its end, with the run
    bounded at 2000 events. *)

val dfs :
  ?max_depth:int ->
  ?max_runs:int ->
  ?max_events:int ->
  scenario ->
  failure option * int
(** Bounded depth-first exploration: enumerate every schedule that
    deviates from FIFO within the first [max_depth] (default 12) choice
    points, stopping at the first failure or after [max_runs] (default
    4096) runs. Returns the failure (if any) and the number of runs
    executed. Exhaustive up to the depth bound: a [None] means no
    explored interleaving violated the scenario's invariants. *)

val random_walks :
  seed:int -> runs:int -> ?max_events:int -> scenario -> failure option * int
(** [runs] uniformly random schedules drawn from a generator seeded with
    [seed] — the long-tail complement to {!dfs}'s systematic prefix.
    Failures carry the concrete recorded schedule, so they replay
    deterministically regardless of the seed. Returns the failure and
    the number of runs executed. *)
