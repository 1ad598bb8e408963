(** Canned host↔board scenarios for the schedule explorer.

    Each scenario drives one descriptor queue with a host process on one
    end and a board process on the other, both stepping at the same
    simulated instants so that every step is an engine choice point. The
    invariant probes are the production ones: [Desc_queue.check_invariants]
    (pointer ranges, occupancy, shadow safety) plus a descriptor
    conservation equation built on [Osiris_core.Invariants.balance], and,
    at the end, a liveness check that everything produced was consumed.

    [host_to_board]'s [mutation] parameter seeds a protocol bug
    ({!Osiris_board.Desc_queue.test_mutation}) so tests can demonstrate
    that exploration catches discipline violations the FIFO schedule and
    quiescence-only checks miss. *)

type t = Explore.scenario

val host_to_board :
  ?locking:Osiris_board.Desc_queue.locking ->
  ?mutation:Osiris_board.Desc_queue.test_mutation ->
  unit ->
  t
(** Transmit-direction scenario: the host enqueues 8 descriptors into a
    4-slot [Host_to_board] queue, yielding after each attempt; the board
    dequeues likewise. Default [locking] is [Lock_free], default
    [mutation] is [No_mutation]. *)

val board_to_host : ?locking:Osiris_board.Desc_queue.locking -> unit -> t
(** Receive-direction scenario: the board enqueues, the host dequeues —
    exercising the [shadow_head] side of the discipline. *)

val transport : unit -> t
(** Transport state-machine scenario: an {!Osiris_transport.Sender} and
    {!Osiris_transport.Receiver} joined by two queues, with a data
    process and an ack process delivering across them on a shared time
    quantum — every delivery a choice point against the other direction
    and the sender's retransmission timer. The first transmission of
    segment 2 (of 6) is dropped, as is the first ack, so every schedule
    exercises loss recovery. Probes: the production sender/receiver
    invariants (window bounds, byte/transmission conservation, timer
    discipline) at every choice point; at_end, liveness ([Finished]) and
    a byte-exact check of the delivered stream. *)

val switch_datapath : unit -> t
(** Switch output-queue scenario: an ingress process pushes 8 cells for
    one routed VC while an egress process drains the output port, both
    yielding after every step. Probes: the switch's conservation
    equation (cells in = forwarded + queued + dropped) at every choice
    point, VCI rewriting on every drained cell, and at_end liveness —
    every cell forwarded or dropped to a full queue. The output queue
    holds 3 cells, deliberately fewer than the burst, so overflow drops
    occur under some schedules. *)
