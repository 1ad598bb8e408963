(** Reliable-transport send side: sliding window, slow start + AIMD
    congestion control, adaptive RTO and loss recovery.

    The sender is a pure state machine over an abstract transmit hook: it
    never touches hosts, boards or links, which is what lets the
    {!Osiris_check} schedule explorer drive it directly. Segmentation
    happens at {!offer} ([seg_size]-byte segments, a short tail segment
    per offer); transmission is clocked by acks ({!on_ack}) and by the
    engine-scheduled retransmission timer.

    Congestion control: [cwnd] (in segments) starts at [init_cwnd], grows
    by one segment per new ack below [ssthresh] (slow start) and by
    [1/cwnd] above it (additive increase). Three duplicate acks {e or}
    [dup_ack_threshold] selective acks above the first hole trigger a
    fast retransmit with a multiplicative cut, fenced NewReno-style so
    each recovery episode cuts once. An ECE echo (the fabric's
    ECN-style mark) cuts multiplicatively at most once per [srtt]. A
    retransmission timeout collapses [cwnd] to one segment, doubles the
    timer (Karn's rule keeps the backoff until an unambiguous sample),
    and after [max_retries] consecutive timeouts without cumulative-ack
    progress the connection moves to [Failed] — the graceful-degradation
    path faults are expected to hit. *)

type config = {
  seg_size : int;  (** payload bytes per segment *)
  window : int;  (** flow-control window, segments (<= 33: SACK reach) *)
  init_cwnd : int;  (** initial congestion window, segments *)
  rto_init : Osiris_sim.Time.t;  (** RTO before the first RTT sample *)
  rto_min : Osiris_sim.Time.t;
  rto_max : Osiris_sim.Time.t;
  max_retries : int;
      (** consecutive timeouts without progress before [Failed] *)
  dup_ack_threshold : int;  (** dup/selective acks arming fast retransmit *)
  ecn : bool;  (** react to ECE echoes (marks are counted regardless) *)
}

val default_config : config
(** 1 KiB segments, window 32, initial cwnd 2, RTO 1 ms initial /
    200 µs floor / 100 ms ceiling, 10 retries, dup-ack threshold 3,
    ECN on. *)

type state = Active | Finished | Failed of string

type stats = {
  mutable offered_bytes : int;
  mutable acked_bytes : int;
  mutable unique_sent : int;  (** segments first transmissions *)
  mutable retransmits : int;
  mutable retransmit_bytes : int;
  mutable transmissions : int;  (** unique_sent + retransmits, always *)
  mutable fast_retransmits : int;
  mutable tail_probes : int;
      (** retransmissions sent by the tail-loss probe: after ~two round
          trips of ack silence with data outstanding, the highest
          unsacked segment is resent (no cwnd cut, no timer backoff) so
          a whole-window loss can rejoin the sack-driven fast path
          instead of waiting out a backed-off RTO *)
  mutable timeouts : int;
  mutable acks_received : int;
  mutable dup_acks : int;
  mutable ece_acks : int;  (** acks carrying the congestion echo *)
  mutable cwnd_cuts : int;
  mutable rtt_samples : int;
}

type t

val create :
  Osiris_sim.Engine.t ->
  ?name:string ->
  ?config:config ->
  ?on_state:(state -> unit) ->
  ?on_timeout:(unit -> unit) ->
  tx:(seq:int -> retransmit:bool -> Bytes.t -> unit) ->
  unit ->
  t
(** [tx] is called for every (re)transmission with the segment payload
    (header encoding is the glue layer's job). It runs in whatever
    context drove the sender — possibly a plain engine callback (the RTO
    timer) — so it must not block; enqueue and signal instead. [on_state]
    fires on the [Active -> Finished] and [Active -> Failed] edges.
    [on_timeout] fires at every retransmission-timeout expiry with data
    outstanding, before the recovery retransmission — the hook a
    multipath load balancer uses to stop trusting its cached paths. *)

val offer : t -> Bytes.t -> unit
(** Append data to the stream and transmit as far as the windows allow.
    Raises [Invalid_argument] after {!close} or once not [Active]. *)

val close : t -> unit
(** No more data will be offered; the sender moves to [Finished] once
    everything offered is cumulatively acked. *)

val on_ack : t -> ack:int -> sack:int -> ece:bool -> unit
(** Feed one acknowledgement: cumulative ack [ack], selective-ack bitmap
    [sack] (bit [i] = segment [ack+1+i] received), congestion echo
    [ece]. *)

val state : t -> state
val stats : t -> stats
val cwnd : t -> float
val snd_una : t -> int

val invariants : t -> string list
(** The transport-state-machine invariant probe, checkable at {e any}
    instant: sequence-pointer order, window bound, sacked-count
    consistency, transmission conservation
    ([transmissions = unique_sent + retransmits]), byte conservation
    ([acked + unacked = offered]), timer discipline (armed iff data
    outstanding while [Active]; disarmed once [Finished]/[Failed]).
    Empty when healthy. *)
