(** Broadcast condition variables for simulation processes.

    A signal carries no value; it wakes every process blocked in {!wait} at
    the simulated instant {!broadcast} is called. Typical uses: "transmit
    queue is no longer full", "an interrupt was raised". *)

type t

val create : Engine.t -> t

val wait : t -> unit
(** Block the calling process until the next {!broadcast}. *)

val wait_then : t -> Process.agent -> (unit -> unit) -> unit
(** [wait_then t a k] is {!wait} for a callback agent: the next
    {!broadcast} schedules one zero-delay event that runs [k] as [a],
    the hop it schedules for a waiting fiber. *)

val broadcast : t -> unit
(** Wake all processes currently blocked in {!wait}. May be called from any
    context (process or plain event callback). *)
