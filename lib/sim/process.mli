(** Cooperative simulation processes.

    A process is an ordinary OCaml function run under an effect handler that
    lets it suspend itself and be resumed later by the engine (a fiber), or
    a chain of engine callbacks that schedule the same events (a callback
    agent, below). Processes model the concurrent actors of the simulated
    system: the host CPU threads, the adaptor's transmit and receive
    microprocessors and DMA engines, the switch ports, and so on.

    All suspension primitives ({!sleep}, and the blocking operations of
    {!Mailbox}, {!Resource}, {!Signal}) may only be called from inside a
    function started with {!spawn}; calling them elsewhere raises
    [Not_in_process]. *)

exception Not_in_process

type resumer = unit -> unit
(** A one-shot thunk that reschedules a suspended process. Primitives must
    call it at most once; the resumed process runs as a fresh engine event
    at the time the resumer is invoked. *)

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> unit
(** [spawn eng f] starts [f] as a process at the current simulated time.
    Uncaught exceptions from [f] are re-raised out of the engine loop with
    the process [name] attached for diagnosis. *)

val suspend : Engine.t -> ((resumer -> unit) -> unit)
(** [suspend eng register] suspends the calling process. [register] is
    called with the process's resumer, which some other actor must later
    invoke to resume it. This is the single primitive from which all
    blocking constructs are built. *)

val sleep : Engine.t -> Time.t -> unit
(** [sleep eng d] pauses the calling process for [d] of simulated time.

    It costs the engine zero, one or two events. Written out, a sleep
    is a timer at [now + d] whose callback schedules the process's
    resume at that same instant, which runs after every callback already
    queued there. Each step is taken only when something could run in
    between:
    - zero: the wake instant is earlier than every pending event and
      within the current {!Engine.run}'s [until], no {!Engine.stop} is
      pending and no chooser is installed. The timer and the resume
      would be the next two dispatches, so the process does not suspend
      at all: the clock moves ({!Engine.skip_to}) and it runs on.
    - one: the process suspends on a timer; when the timer fires and
      nothing else is queued at that instant, the resume would be the
      next dispatch, so the timer continues the process itself.
    - two: otherwise the timer schedules the resume, like any
      {!resumer}.

    Each shortcut runs exactly the work the skipped dispatch would have
    run next, so every callback still runs in the same (time, seq)
    order and simulated results do not change. What does change is
    {!Engine.events_dispatched} and what a [max_events] budget buys.
    Raises [Not_in_process] outside a process, on every path. *)

val yield : Engine.t -> unit
(** [sleep eng 0]: let the other events due at this instant run first.
    With none queued it returns at once. *)

exception Process_failure of string * exn
(** Raised out of the engine loop when a named process dies with an
    uncaught exception. *)

(** {2 Callback agents}

    An agent is a process written as engine callbacks instead of a
    fiber: each step runs to its end and names the function that
    continues it. The forms below schedule exactly the events their
    fiber counterparts schedule, at the same instants and in the same
    order, so a process converted to an agent dispatches identically;
    what it saves is the fiber switch and the effect, continuation and
    resume closure of every suspension. Every blocking primitive has a
    callback form ({!sleep_then}, [Mailbox.recv_then] and
    [Mailbox.send_then], [Signal.wait_then], [Resource.acquire_then] and
    [Resource.use_then]); an agent that must wait in the middle of a
    step ends the step there and names the rest as the continuation.
    The switch ports and the adaptor's stages are agents; the host's
    threads, which block inside the CPU model, stay fibers. *)

type agent
(** A name, an engine, and the step to run at the agent's one pending
    event. It owns two engine handles, one for a sleep's timer and one
    for its wake-up, built once and re-armed with {!Engine.reschedule}:
    a sleep that needs a timer and a wake-up both cost the engine no
    allocation. Because an agent waits on one thing at a time, neither
    handle is ever queued twice; re-arming a queued one raises
    [Invalid_argument]. *)

val agent : Engine.t -> name:string -> agent

val start : agent -> (unit -> unit) -> unit
(** [start a k] runs [k] as [a] in one zero-delay event: the event
    {!spawn} schedules. An exception escaping [k], or any later step of
    [a], leaves the engine as [Process_failure (name, exn)]. *)

val sleep_then : agent -> Time.t -> (unit -> unit) -> unit
(** [sleep_then a d k] is {!sleep} followed by [k ()]: zero, one or two
    events by the same rules, with [k] running inline when no event is
    needed. Call it from [a]'s own step, in tail position. *)

val await : agent -> (unit -> unit) -> resumer
(** [await a k] makes [k] the step [a] runs next and returns [a]'s
    resumer, for a waker to call: the call schedules one zero-delay
    event running [k] as [a], the hop a suspended fiber's resumer
    schedules. An agent waits on one thing at a time: the next
    [await], [sleep_then] or [start] of [a] replaces [k], and calling
    the resumer again before that event has run raises
    [Invalid_argument]. *)
