(** Counted resources with FIFO (optionally prioritized) waiting.

    A resource with capacity [c] admits at most [c] concurrent holders;
    further {!acquire} calls block, and {!acquire_then} calls from
    callback agents wait in the same queue. This models exclusive hardware shared by
    several actors — most importantly the TURBOchannel / memory bus, which
    on the DECstation 5000/200 is held for the full duration of each DMA
    transaction and each CPU cache fill. *)

type t

val create : Engine.t -> capacity:int -> t

val acquire : ?priority:int -> t -> unit
(** Block until a unit of the resource is available, then take it. Lower
    [priority] values are served first; equal priorities are FIFO. The
    default priority is 0. *)

val acquire_then :
  ?priority:int -> t -> Process.agent -> (unit -> unit) -> unit
(** [acquire_then t a k] is {!acquire} for a callback agent: the same
    grant rule and the same [(priority, seq)] waiter order. A free unit
    with nobody waiting is taken and [k] runs inline; else [a] queues,
    and the {!release} that hands it the unit schedules the one
    zero-delay event that runs [k] — the hop a blocked fiber costs. *)

val release : t -> unit
(** Return one unit and wake the best waiter, if any. *)

val use : ?priority:int -> t -> duration:Time.t -> unit
(** [use t ~duration] acquires, holds the resource for [duration] of
    simulated time, and releases. This is the shape of a bus transaction. *)

val use_then :
  ?priority:int -> t -> Process.agent -> duration:Time.t -> (unit -> unit) ->
  unit
(** {!use} for a callback agent: {!acquire_then}, then
    {!Process.sleep_then} for [duration], then {!release} and [k]. *)

type stats = {
  mutable busy_time : Time.t;  (** total (unit × time) the resource was held *)
  mutable acquisitions : int;  (** completed acquires *)
  mutable wait_time : Time.t;  (** total time acquirers spent blocked *)
}

val stats : t -> stats
(** Live counters for utilization reporting; [busy_time] divided by elapsed
    time and capacity gives utilization. *)
