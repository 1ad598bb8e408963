(** Adaptive retransmission timeout (RFC 6298 + Karn's algorithm).

    [srtt] and [rttvar] follow the classic exponentially weighted filters
    (gains 1/8 and 1/4); the timeout is [srtt + 4*rttvar] clamped to
    [\[min, max\]]. Until the first sample the timeout is [init].

    Karn's algorithm is split across the caller and this module: the
    {e caller} must only feed {!sample} round-trip times of segments
    transmitted exactly once (a retransmitted segment's ack is ambiguous);
    this module keeps the exponential {!backoff} applied by timeouts in
    force until the next unambiguous sample arrives. *)

type t

val create : init:Osiris_sim.Time.t -> min:Osiris_sim.Time.t ->
  max:Osiris_sim.Time.t -> t

val sample : t -> Osiris_sim.Time.t -> unit
(** Fold in one unambiguous RTT measurement; resets any backoff. *)

val current : t -> Osiris_sim.Time.t
(** The timeout to arm now, backoff included. *)

val backoff : t -> unit
(** Double the timeout (cap at [max]); called on each retransmission
    timeout. *)

val srtt : t -> Osiris_sim.Time.t option
