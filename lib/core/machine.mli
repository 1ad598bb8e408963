(** Machine profiles: every hardware constant and calibrated software cost
    for the two workstation generations of the paper's §4.

    Hardware-derived values (bus overheads, clock rates, cache geometry) are
    taken directly from the paper or the machines' specifications; software
    costs (interrupt dispatch, driver and protocol per-PDU work, scheduling
    latency, background memory-traffic fraction) are calibrated so that
    Table 1 and the end points of Figures 2-4 are reproduced — see
    EXPERIMENTS.md for the calibration notes. *)

type driver_costs = {
  tx_per_pdu : Osiris_sim.Time.t;  (** fixed driver cost to queue one PDU *)
  tx_per_buffer : Osiris_sim.Time.t;  (** per physical buffer (descriptor) *)
  rx_per_pdu : Osiris_sim.Time.t;
  rx_per_buffer : Osiris_sim.Time.t;
  rx_per_kb : Osiris_sim.Time.t;
      (** per-KB receive-path cost (buffer management, VM bookkeeping);
          calibrated against Table 1's latency slope and the Figure 2/3
          plateaus *)
  sched_latency : Osiris_sim.Time.t;
      (** interrupt handler → driver thread running *)
  syscall : Osiris_sim.Time.t;
      (** kernel entry/exit, charged to user-domain clients of the kernel
          driver (zero for in-kernel tests and for ADC clients) *)
}

type t = {
  name : string;
  cpu_hz : int;
  page_size : int;
  mem_size : int;
  bus : Osiris_bus.Turbochannel.topology;
  cache : Osiris_cache.Data_cache.config;
  interrupt_cost : Osiris_sim.Time.t;  (** paper §2.1.2: 75 µs on the 5000/200 *)
  wiring : Osiris_os.Wiring.costs;
  wiring_policy : Osiris_os.Wiring.policy;
  proto_costs : Osiris_proto.Ctx.costs;
  driver_costs : driver_costs;
  mem_traffic_fraction : float;
      (** fraction of executed CPU time that reappears as memory-bus traffic
          (cache fills / write-backs of ordinary execution); on the shared
          bus this contends with DMA (§4) *)
  rx_buffer_size : int;  (** receive buffer size (paper: 16 KB) *)
  rx_pool_buffers : int;  (** receive buffers the driver preallocates *)
}

val ds5000_200 : t
(** DECstation 5000/200: 25 MHz R3000, shared TURBOchannel, 64 KB
    direct-mapped write-through data cache, no DMA coherence. *)

val dec3000_600 : t
(** DEC 3000/600: 175 MHz Alpha, crossbar between TURBOchannel / memory /
    cache, DMA updates the cache. *)
