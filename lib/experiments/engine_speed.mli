(** Engine macro-benchmark: events and delivered payload per CPU second
    over the full star-topology datapath.

    Runs a seeded workload for a fixed budget of live events, measures
    dispatch rate, simulated cells forwarded per second, simulated
    payload bytes per second and payload delivered per CPU second, and
    checks that (a) the workload runs below capacity (no switch
    overflow drop, no reassembly error, PDUs delivered), (b) every
    delivered PDU is byte for byte what its sender sent and (c) the
    engine retains no memory proportional to the number of dispatched
    events. *)

type outcome = {
  events : int;  (** live events dispatched per timed segment *)
  wall_s : float;  (** wall time across all timed segments *)
  cpu_s : float;
      (** user CPU time of the best (fastest) segment; the rates below
          use this *)
  events_per_s : float;
  cells_forwarded : int;
  cells_per_s : float;
  bytes_per_s : float;  (** forwarded cell payload bytes per wall second *)
  delivered_pdus : int;
  delivered_bytes : int;
  corrupt_pdus : int;
      (** delivered PDUs whose bytes differ from the sender's pattern *)
  delivered_kb_per_s : float;
      (** payload KB delivered to the sink per user CPU second, best
          segment: unlike events/s it compares across commits that
          change how much work one event carries *)
  events_per_kb : float;
      (** live events per delivered KB over all timed segments *)
  minor_words_per_kb : float;
      (** minor-heap words per delivered KB over all timed segments: the
          allocation figure that stays comparable when events shrink *)
  stalled_segments : int;  (** timed segments that delivered nothing *)
  final_clock : Osiris_sim.Time.t;
  cells_in : int;
  dropped : int;  (** cells dropped at the switch *)
  reassembly_errors : int;  (** at the receiver's board *)
  live_words_growth : int;
      (** major-heap words retained across all timed segments *)
  minor_words_per_event : float;
      (** minor-heap words allocated per dispatched event, best
          segment: the R5 hot-path allocation lint's rent, in numbers *)
}

val run :
  ?events:int ->
  ?senders:int ->
  ?msg_size:int ->
  ?seed:int ->
  unit ->
  outcome * string list
(** One measurement at a given event budget (default 1M), each sender
    offering one PDU every 400 us (four 2 KB senders: ~164 Mb/s, below
    the ~200 Mb/s the receiving host sustains): the outcome and the
    violations — a dropped cell, a reassembly error, a delivered PDU
    that differs from what its sender sent, a timed segment that
    delivered nothing, or a live-words leak. *)

val figure : unit -> Report.figure
(** The BENCH.json figure over the event-budget sweep: events/s,
    delivered KB per CPU second, events and minor words per delivered
    KB, forwarded-cell and payload-byte rates, minor words per event
    and live-words growth. Raises [Failure] on any violation. *)
