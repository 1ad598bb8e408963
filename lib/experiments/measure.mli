(** The §4 measurement policy, shared by every experiment that uses it.

    Table 1 and the latency ablations are ping-pongs between two
    back-to-back hosts: 4 warm-up round trips, then [rounds] timed ones,
    reported as their mean. Figures 2–4, the closing host-to-host
    prediction and the throughput ablations are rates over a window of
    simulated time taken after a warm-up. The raw-ATM experiments send
    on one dedicated VCI bound to each board's kernel channel. *)

val raw_vci : int
(** The VCI of the raw-ATM experiments (Table 1's "ATM" rows). *)

val bind_raw : Osiris_core.Network.t -> unit
(** Bind {!raw_vci} to the kernel channel of both boards of the pair. *)

val rtt :
  Osiris_sim.Engine.t ->
  ?settle:Osiris_sim.Time.t ->
  rounds:int ->
  ((unit -> unit) -> unit -> unit) ->
  float
(** [rtt eng ~rounds setup] calls [setup pong], which binds the echo
    and reply handlers (the reply handler calls [pong]) and returns the
    [ping] that sends one message. A pinger then waits [settle] (default
    none), pings and waits for the reply 4 + [rounds] times, and stops
    the engine; the run's horizon is 30 s of simulated time. Returns the
    mean round-trip time in microseconds of the last [rounds] round
    trips. Raises [Failure] when fewer than [rounds] of them complete. *)

val window :
  Osiris_sim.Engine.t ->
  warmup:Osiris_sim.Time.t ->
  span:Osiris_sim.Time.t ->
  (unit -> 'a) ->
  'a * 'a * Osiris_sim.Time.t
(** [window eng ~warmup ~span sample] runs the engine to [warmup],
    samples, runs [span] more and samples again: the two samples and the
    simulated time between them. *)
