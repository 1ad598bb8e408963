(** Bounded FIFO channels between simulation processes.

    A mailbox with capacity [c] blocks senders once [c] items are queued and
    blocks receivers while it is empty. With [c = max_int] it degenerates to
    an unbounded queue. Blocked processes are served in FIFO order; a
    callback agent waiting in {!send_then} or {!recv_then} queues with
    the fibers. *)

type 'a t

val create : Engine.t -> ?capacity:int -> empty:'a -> unit -> 'a t
(** [create eng ~capacity ~empty ()] makes an empty mailbox. [capacity]
    defaults to [max_int] and must be at least 1. Items and blocked
    processes wait in array rings that double when full, so a queued item
    costs no allocation; [empty] fills the slots no item occupies, so a
    taken item is never pinned. *)

val send : 'a t -> 'a -> unit
(** Enqueue a value, blocking the calling process while the mailbox is
    full. *)

val send_then : 'a t -> 'a -> Process.agent -> (unit -> unit) -> unit
(** [send_then t v a k] is {!send} for a callback agent: [v] is queued
    and [k] runs inline when there is room; else [a] waits among the
    blocked senders, and the receiver that frees a slot schedules the
    one zero-delay event that retries — the events a fiber blocked in
    {!send} costs. *)

val try_send : 'a t -> 'a -> bool
(** Non-blocking enqueue; [false] if the mailbox is full. Usable from any
    context. *)

val recv : 'a t -> 'a
(** Dequeue the oldest value, blocking the calling process while the mailbox
    is empty. *)

val recv_then : 'a t -> Process.agent -> ('a -> unit) -> unit
(** [recv_then t a k] is {!recv} for a callback agent: [k v] runs with
    the oldest value, inline when one is queued, else in the one
    zero-delay event the sender's wake-up schedules — the events a
    fiber blocked in {!recv} costs. *)

val try_recv : 'a t -> 'a option
(** Non-blocking dequeue. Usable from any context. *)

val length : 'a t -> int
(** Number of queued values. *)
