(** Deterministic, seeded fault plans.

    A plan is a pure description of {e when} each fault dimension is
    active and how hard: probabilistic bursts (cell drop, payload
    corruption, header corruption, duplication, interrupt loss) and timed
    windows (per-channel carrier loss, receive-FIFO squeeze). Plans are
    data — applying one to a running simulation is {!Injector}'s job.

    {!random} derives every choice from its seed, so a soak failure
    reproduces from the seed alone; {!to_string}/{!of_string} round-trip
    a plan through a compact textual form (times are integer
    nanoseconds, with [us]/[ms]/[s] suffixes accepted on input), which
    the test suite's soak also reads from [OSIRIS_FAULT_PLAN]:

    {v seed=7;drop@2ms-5ms=0.002;down#2@3ms-4ms;squeeze#4@1ms-2ms v}

    Interrupt loss comes in two granularities: [irqloss@a-b=p] suppresses
    receive interrupts for every channel, while [irqloss#3@a-b=p] targets
    only ADC channel 3 (the injector takes the max of the two for a
    channel with both active).

    Two further targeted faults: [freestarve#1@2ms-4ms] withholds
    channel 1's free-queue replenishment for the window, and
    [flap#2@2ms-4ms=40us] cycles channel 2's carrier down/up every
    40 µs for the window — a flap storm faster than one PDU's wire time
    (the single clean outage of [down#N] taken to its re-striping
    stress limit). *)

type burst = {
  b_from : Osiris_sim.Time.t;
  b_until : Osiris_sim.Time.t;  (** exclusive *)
  prob : float;  (** per-cell (or per-interrupt) probability while active *)
}

type window = { w_from : Osiris_sim.Time.t; w_until : Osiris_sim.Time.t }

type t = {
  seed : int;
  drop : burst list;
  corrupt : burst list;  (** payload byte flips *)
  corrupt_header : burst list;  (** VCI/seq mangles (misdelivery) *)
  duplicate : burst list;
  link_down : (int * window) list;  (** (channel, outage window) *)
  rx_squeeze : (int * window) list;  (** (fifo capacity, window) *)
  irq_loss : burst list;  (** lost coalesced receive interrupts *)
  irq_loss_ch : (int * burst) list;
      (** (ADC channel, burst): interrupt loss for one channel only *)
  free_starve : (int * window) list;
      (** (channel, window): the channel's generic free queue yields
          nothing — host replenishment withheld ([freestarve#N@a-b]) *)
  flap : (int * window * Osiris_sim.Time.t) list;
      (** (channel, storm window, half-period): carrier flap storm — the
          link toggles down/up every half-period for the whole window,
          starting down ([flap#N@a-b=hp]; pick a half-period shorter
          than one PDU's wire time to stress re-striping) *)
  trunk_loss : burst list;
      (** cell-drop bursts on the inter-switch trunk links
          ([trunkloss@a-b=p]); applied by {!Injector.inject_topology} *)
  sw_flap : (int * int * window * Osiris_sim.Time.t) list;
      (** (switch, port, storm window, half-period): fabric-level
          carrier flap of one output port of one switch — the port stops
          draining on the down half-periods, so its queue fills and
          overflows while transport retransmissions ride out the storm
          ([swflap#S.P@a-b=hp]); applied by {!Injector.inject_topology} *)
  trunk_down : (int * window) list;
      (** (trunk index, outage window): a clean bidirectional cut of one
          fabric trunk — all striped channels of both directed links down
          for the window ([trunkdown#T@a-b]); applied by
          {!Injector.inject_topology} *)
}

val none : t

(** The effective knob values at one instant (overlapping bursts take the
    max probability; overlapping squeezes the tightest capacity). *)
type knobs = {
  k_drop : float;
  k_corrupt : float;
  k_header : float;
  k_dup : float;
  k_irq_loss : float;
  k_irq_loss_ch : (int * float) list;
      (** per-channel interrupt-loss probability; channels with no active
          burst are absent *)
  k_down : int list;
      (** channels whose carrier is cut right now (outages and the down
          half-periods of flap storms) *)
  k_squeeze : int option;
  k_free_starve : int list;  (** channels whose free queue is withheld *)
  k_trunk_loss : float;  (** trunk cell-drop probability right now *)
  k_sw_port_down : (int * int) list;
      (** (switch, port) pairs down right now (down half-periods of
          swflap storms) *)
  k_trunk_down : int list;  (** fabric trunks cut right now *)
}

val knobs_at : t -> Osiris_sim.Time.t -> knobs

val boundaries : t -> Osiris_sim.Time.t list
(** Every instant at which some knob changes, sorted, deduplicated — the
    times an injector must re-apply {!knobs_at}. *)

val random : ?nlinks:int -> seed:int -> horizon:Osiris_sim.Time.t -> unit -> t
(** A multi-dimension plan whose windows all end by 90% of [horizon]
    (leaving a fault-free grace period to quiesce in), derived entirely
    from [seed]. *)

val to_string : t -> string
val of_string : string -> t
