(** Congestion sweep: windowed transports incast one switch port.

    {!Incast} measures raw damage from open-loop bursts; this experiment
    reruns the many-to-one pattern with {!Osiris_transport} doing
    end-to-end recovery and congestion control, and asks what the fabric
    {e wastes}: retransmitted bytes and completion-time inflation vs the
    output queue's capacity, with the switch's ECN-style threshold
    marking off or on. Every byte is eventually delivered exactly once
    (the runs audit this), so the cliff shows up as work, not loss.

    {!soak} replays the transfer under seeded random fault plans — link
    bursts, carrier outages, receive squeezes, plus a port-flap storm on
    the receiver's switch port ([swflap#0.0]) and a trunk-loss burst — requiring every
    stream to finish byte-exact with bounded retransmission and zero
    invariant violations. *)

val small_machine : Osiris_core.Machine.t
(** The Alpha profile with memory scaled to 8 MB and the receive pool
    provisioned for the incast (the driver caps circulating buffers at
    the descriptor-queue depth, and eight windowed senders can have more
    PDUs in flight than the paper's 64-slot queue admits): fast enough,
    and buffered enough, that the switch queue — not the adaptor's
    no-buffer drop — is the loss point. *)

val transport_config : Osiris_transport.Sender.config
(** Short (128 B, four-cell) segments — so a whole PDU fits even the
    shallowest swept queue several times over — window 16, RTO floor
    above the congested round-trip. *)

type outcome = {
  flows : Flows.outcome;
      (** its [violations] add the traffic accounting to the fabric
          audit and the connection invariants *)
  queue_cells : int;
  mark_threshold : int;  (** 0 = marking off *)
  retransmits : int;
  retransmit_bytes : int;
  ece_acks : int;
  marked_cells : int;
  host_dropped : int;
      (** PDUs the boards dropped for want of a receive buffer (§3.1) *)
}

val run :
  ?senders:int ->
  ?queue_cells:int ->
  ?marking:bool ->
  ?bytes_per_sender:int ->
  ?seed:int ->
  ?config:Osiris_transport.Sender.config ->
  ?plan:Osiris_fault.Plan.t ->
  ?cap:Osiris_sim.Time.t ->
  unit ->
  outcome
(** One transfer: [senders] hosts each push [bytes_per_sender] through
    their own single-path {!Flows} connection to host 0, all crossing
    the same switch output port ([queue_cells] deep; [marking] sets the
    threshold to [max 2 (queue_cells / 3)]). {!small_machine} profiles
    every host. The switch runs early/partial packet discard sized to
    one segment PDU, so contention sheds whole PDUs (clean losses the
    sack machinery recovers in a round trip) instead of cutting cells
    out of the middle of them. [plan] additionally arms a topology
    injector on the switch and a host-link injector on the receiver's
    downlink. The engine runs until every connection is terminal (or
    [cap]), then a grace period, then the audit. *)

val figure_retransmits_vs_queue : unit -> Report.figure
(** The BENCH figure (marking off vs on vs lossless baseline, 8 senders
    of 32 KB each), plus one 64-sender marking-on point at a
    fan-in-scaled queue — the 8-sender series is untouched; the wide
    point's bar is byte-exact delivery with zero violations. Raises
    [Failure] if any run violates an invariant, if a marking-on run's
    goodput falls below 90% of the baseline, or if marking-on
    retransmitted bytes fail to decrease (within noise) as the queue
    grows. *)

val soak : unit -> (int * outcome) list
(** The seeded fault soak: 8 seeds, each a different random plan +
    port-flap storm over 3 senders of 8 KB. *)

val soak_violations : (int * outcome) list -> string list
(** Empty iff every soak stream finished byte-exact with bounded
    retransmission and no invariant violations. *)
