(** A complete simulated host: machine, memory, cache, bus, OSIRIS board,
    kernel driver, and the UDP/IP protocol stack, assembled from a
    {!Machine} profile.

    The kernel's channel 0 is driven by an in-kernel {!Driver}; further
    channels (ADCs) can be opened and given their own driver instances via
    {!register_channel}. *)

type t = {
  eng : Osiris_sim.Engine.t;
  machine : Machine.t;
  mem : Osiris_mem.Phys_mem.t;
  vs : Osiris_mem.Vspace.t;  (** kernel address space *)
  cpu : Osiris_os.Cpu.t;
  bus : Osiris_bus.Turbochannel.t;
  cache : Osiris_cache.Data_cache.t;
  irq : Osiris_os.Irq.t;
  wiring : Osiris_os.Wiring.t;
  board : Osiris_board.Board.t;
  demux : Osiris_xkernel.Demux.t;
  driver : Driver.t;  (** the kernel channel's driver *)
  ctx : Osiris_proto.Ctx.t;
  ip : Osiris_proto.Ip.t;
  udp : Osiris_proto.Udp.t;
  addr : Osiris_proto.Ip.addr;
}

type config = {
  board : Osiris_board.Board.config;
  ip : Osiris_proto.Ip.config;
  udp_checksum : bool;
  invalidation : Driver.invalidation;
  contiguous_buffers : bool;
  seed : int;
}

val default_config : config
(** Paper defaults: the 16 KB IP MTU with fragment boundaries not
    page-aligned, UDP checksum off, lazy invalidation, contiguous 16 KB
    receive buffers, single-cell DMA, per-link reassembly. *)

val create : Osiris_sim.Engine.t -> Machine.t -> addr:Osiris_proto.Ip.addr -> config -> t

val start : t -> unit
(** Start the board processors and the kernel driver threads. Call after
    {!Osiris_board.Board.attach} (or
    {!Osiris_board.Board.start_fictitious_source}). *)

val ip_vci : t -> int
(** The VCI the kernel IP stack sends and receives on. Bind the same value
    on the peer. *)

val register_channel :
  t -> Osiris_board.Board.channel -> Driver.t -> unit
(** Wire a (user) channel's interrupts to its driver: receive-queue
    non-empty and transmit half-empty for that channel id. The kernel
    channel is wired automatically. *)

val set_violation_handler : t -> (unit -> unit) -> unit
(** Install the handler run (at interrupt priority) when the board reports
    a protection violation on an ADC. The OS would raise an access
    violation exception in the offending process (§3.2). *)

val new_udp_test_receiver :
  t -> port:int -> on_msg:(len:int -> unit) -> unit
(** Bind a UDP port to a sink that records each delivered payload length,
    touching no data, then disposes the message — the receive-side test
    program of §4. *)
