(** The host CPU as a schedulable resource.

    Simulated software costs are expressed as exclusive occupancy of the
    CPU: a thread that "executes" for 200 µs holds the CPU resource for that
    long, delaying other threads. Interrupt handlers acquire at a higher
    priority, so they run ahead of queued thread work (they do not preempt a
    slice already in progress — costs should therefore be consumed in
    reasonably small chunks where preemption latency matters). *)

type t

val create : Osiris_sim.Engine.t -> hz:int -> t

val set_memory_load : t -> (Osiris_sim.Time.t -> unit) -> unit
(** Install a background memory-traffic hook: after every consumed slice of
    duration [d], the hook runs (in process context) and typically performs
    bus transactions proportional to [d]. This models the cache-fill and
    write-back traffic ordinary instruction execution generates, which on a
    shared-bus machine (DECstation 5000/200) contends with DMA — the "main
    memory contention" of paper §4. *)

val engine : t -> Osiris_sim.Engine.t

val cycles_ns : t -> int -> Osiris_sim.Time.t
(** Duration of the given number of CPU cycles, rounded up. *)

val consume : t -> Osiris_sim.Time.t -> unit
(** Execute for the given duration at normal (thread) priority. *)

val consume_prio : t -> priority:int -> Osiris_sim.Time.t -> unit
(** Execute at an explicit scheduling priority (lower runs first; the
    normal thread priority is 10, interrupts run at 0). Prioritized driver
    threads are how the §3.1 priority-traffic discipline maps thread
    priority to traffic priority. *)

val consume_cycles : t -> int -> unit

val consume_interrupt : t -> Osiris_sim.Time.t -> unit
(** Execute at interrupt priority (served before any queued thread work). *)

val with_held : t -> (unit -> 'a) -> 'a
(** Hold the CPU across [f]: use when a code path mixes pure compute with
    memory stalls (cache fills) that must not let other threads in. Inside,
    let time pass with [Osiris_sim.Process.sleep] rather than
    {!consume}. *)

val busy_stats : t -> Osiris_sim.Resource.stats
