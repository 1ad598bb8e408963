(** Reliable flows over a switched fabric: the harness the congestion
    and multipath figures share.

    A figure builds its fabric from {!switch_config} and {!host_config},
    opens its flows with {!connect}, arms whatever fault injectors it
    needs, and calls {!run}: staggered starts, the engine driven until
    every connection is terminal, a grace period, then the accounting
    and the audit. Every flow carries the {!Fault_soak.fill_pattern}
    stream of its index, so delivery is checked byte for byte. *)

val switch_config :
  Osiris_transport.Sender.config ->
  queue_cells:int ->
  mark_threshold:int ->
  Osiris_switch.Switch.config
(** The default switch with [queue_cells]-deep output queues, marking
    at [mark_threshold] (0 = off), and early/partial packet discard
    sized to one segment PDU of the sender [config], so contention
    sheds whole PDUs. *)

val host_config : seed:int -> Osiris_core.Host.config
(** The default host with [seed], a 2 ms board reassembly timeout and
    256-slot descriptor queues. *)

type t
(** Open connections with their sinks and start and finish instants. *)

val connect :
  Osiris_sim.Engine.t ->
  Osiris_core.Network.topology ->
  name:string ->
  config:Osiris_transport.Sender.config ->
  mode:Osiris_lb.Spray.mode ->
  bytes:int ->
  (int * int) array ->
  t
(** One {!Osiris_lb.Spray} connection per [(src, dst)] flow, opened in
    flow order and named [name ^ string_of_int i]. Flow [i] offers
    [bytes] bytes; its RTO floor is raised by 137·[i] µs and its ceiling
    by 613·[i] µs. *)

val conns : t -> Osiris_lb.Spray.t array

val sum : t -> (Osiris_transport.Sender.stats -> int) -> int
(** A sender counter summed over every connection. *)

type outcome = {
  nflows : int;
  offered_bytes : int;
  delivered_bytes : int;
  byte_exact : bool;  (** every stream delivered exactly, in order *)
  finished : int;  (** connections that reached [Finished] *)
  failed : int;  (** connections that aborted (max retries) *)
  completion : Osiris_sim.Time.t option;
      (** last finish instant; [None] if any flow did not finish *)
  fct_p99 : Osiris_sim.Time.t;
      (** 99th-percentile flow completion time, from each flow's start;
          an unfinished flow counts as the cap *)
  switch_dropped : int;  (** cells, summed over every switch *)
  violations : string list;
      (** {!Osiris_core.Network.audit} of the fabric, then every
          connection's {!Osiris_lb.Spray.invariants} *)
}

val run :
  t ->
  jitter:Osiris_util.Rng.t ->
  every_us:int ->
  spread_us:int ->
  cap:Osiris_sim.Time.t ->
  outcome
(** Start flow [i] at [i * every_us + Rng.int jitter spread_us] µs
    (drawn in flow order), run the engine in 5 ms slices until every
    connection is terminal or the clock reaches [cap], then 10 ms more
    so acks, sweeps and pumps quiesce, and account. *)

val check : tag:string -> outcome -> string list
(** Every violation, a stream that is not byte-exact and an unfinished
    flow, as sentences prefixed with [tag]; empty when clean. *)
