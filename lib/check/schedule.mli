(** Replayable interleaving schedules.

    A schedule is the sequence of picks an {!Explore} run made at its
    engine choice points (see [Osiris_sim.Engine.set_chooser]): the k-th
    element is the index, in scheduling order, of the callback that fired
    at the k-th instant with more than one runnable callback. Schedules
    print in a compact dotted form (["0.2.1"], or ["-"] when empty) meant
    to be pasted back into {!Explore.replay} — the same
    counterexample-from-a-string workflow as [OSIRIS_FAULT_PLAN]. *)

type t = int list

val to_string : t -> string
val of_string : string -> t
(** Raises [Failure] on malformed input (non-numeric or negative picks). *)
