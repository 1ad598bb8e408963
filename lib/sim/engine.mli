(** Discrete-event simulation engine.

    An engine owns a virtual clock and an event queue. Callbacks are
    scheduled at absolute or relative simulated times and executed in
    timestamp order; callbacks scheduled for the same instant run in the
    order they were scheduled. The engine is strictly single-threaded and,
    given the same inputs, fully deterministic.

    Same-instant ordering is pluggable: a {!chooser} installed with
    {!set_chooser} is consulted whenever two or more live callbacks are
    runnable at the same instant, turning each such tie into an explicit,
    recordable choice point (the hook {!Osiris_check} schedule exploration
    is built on). Without a chooser the engine keeps its historical FIFO
    tie-break, bit-for-bit.

    {b The queue.} Every scheduled callback gets a fresh sequence number
    and dispatch is in [(time, seq)] order. A callback due at exactly
    the current instant goes to a FIFO ring of handles. A later one goes
    to one of two 4-ary min-heaps of immediate [(time, seq, slot)] ints:
    the near heap when it is due less than 65.5 us (2{^16} ns) ahead,
    else the far heap, which keeps the long transport timers out of the
    heap that every per-cell event sifts through. Its handle sits in
    pool slot [slot], written once when it is queued and cleared once
    when it is taken. Dispatch serves the lower of the two heap tops. A
    heap entry due at the current instant was queued before the clock
    reached that instant, so its seq is lower than that of every FIFO
    entry: serving the heaps' entries at the current instant first and
    the FIFO after them is exactly [(time, seq)] order. An event costs
    one handle record (none for {!reschedule}) and no other allocation:
    a zero-delay event is O(1), and a later one O(log n) int moves with
    no pointer store and no write barrier; only doubling an array
    allocates. Vacated slots are cleared, so a fired callback's closure
    is never pinned by the queue.

    {b Cancelled events.} {!cancel} only marks the handle. Its entry
    keeps its place and key, and the dispatch loop drops it when its
    instant comes up. So a cancelled entry still counts in {!pending},
    still bounds {!skip_to} and the end-of-run clock, still keeps its
    handle from being {!reschedule}d, and still moves the clock to its
    time when its turn comes: cancelling changes nothing observable but
    the callback not running. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled or, once it has
    fired, rescheduled. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t
(** Current simulated time. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] arranges for [f ()] to run at [now t + delay].
    [delay] must be non-negative. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] arranges for [f ()] to run at absolute time
    [time], which must not be in the past. *)

val unarmed : (unit -> unit) -> handle
(** [unarmed f] is a handle for [f] that is not queued: the first
    {!reschedule} arms it. An owner with at most one pending event per
    purpose keeps such handles and re-arms them, so its events allocate
    nothing. *)

val reschedule : t -> delay:Time.t -> handle -> unit
(** [reschedule t ~delay h] re-arms a handle whose event has already
    fired (or been cancelled), reusing the handle and its callback
    instead of allocating fresh ones — the cheap way to run a periodic
    timer. Consumes a sequence number exactly as {!schedule} does, so
    dispatch order is indistinguishable from a fresh [schedule] of the
    same closure. Raises [Invalid_argument] if [h] is still queued. *)

val reschedule_at : t -> time:Time.t -> handle -> unit
(** {!reschedule} at an absolute time. *)

val cancel : t -> handle -> unit
(** [cancel t h] cancels a pending event of [t]. Cancelling an event
    that has already fired, or twice, is a no-op. The entry stays
    queued until its instant passes (see {e Cancelled events} above);
    cancelling costs one int store. *)

val pending : t -> int
(** Number of events still queued (including cancelled ones whose
    instant has not passed yet). *)

val events_dispatched : t -> int
(** Total live (non-cancelled) callbacks executed over the engine's
    lifetime — the event count the speed benchmarks report. It counts
    dispatched callbacks only: a {!Process.sleep} that merely moves the
    clock with {!skip_to} is not one, so one event can carry several
    sleeps' worth of work. *)

val step : t -> bool
(** Execute the single next event. Returns [false] when the queue is
    empty. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Run events in order until the queue drains, the clock passes [until],
    or [max_events] {e live} callbacks have executed — popping a
    cancelled handle does not consume budget, and neither does a sleep
    that only advances the clock ({!skip_to}). Events scheduled exactly
    at [until] still run. On return from a bounded run the clock is at
    [until] unless events at or before [until] remain unfired (a
    [max_events] budget can leave some), in which case it stays at the
    last dispatch so time never runs backwards. *)

val skip_to : t -> Time.t -> bool
(** [skip_to t time] is the run-horizon query behind {!Process.sleep}:
    would a callback scheduled now at [time] be the next one the
    current {!run} dispatches, before that run returns? That holds when
    [time] is not in the past, not past the run's [until], strictly
    earlier than every queued event (one queued at [time] itself has a
    lower seq and fires first), no {!stop} is pending and no chooser is
    installed. If so the clock moves to [time] and the answer is
    [true]: the caller runs that callback's work inline, in the same
    dispatch order, without an event. Otherwise nothing changes, and
    outside {!run} (for example under {!step}) the answer is always
    [false]. *)

exception Stopped

val stop : t -> unit
(** Request that {!run} return after the current callback completes. *)

type chooser = now:Time.t -> count:int -> int
(** [choose ~now ~count] picks which of the [count >= 2] live callbacks
    runnable at instant [now] fires next, by index in scheduling (seq)
    order — index 0 reproduces the FIFO default. Must return a value in
    [\[0, count)]. *)

val set_chooser : t -> chooser option -> unit
(** Install (or, with [None], remove) the same-instant tie-breaker. The
    chooser is only consulted for instants with at least two live
    callbacks; cancelled events are never offered as candidates. *)
