(** A period-correct Ethernet adaptor and driver, as the latency baseline.

    The paper's §4 grounds Table 1 by noting that OSIRIS's 1-byte
    round-trip latencies are "comparable to — and in fact, a bit better
    than — those obtained when using the machines' Ethernet adaptors under
    otherwise identical conditions". This module models that comparator: a
    LANCE-style 10 Mb/s Ethernet interface with descriptor rings, one
    interrupt per received frame (no coalescing), a driver that copies each
    frame into a fresh kernel buffer (the classic non-zero-copy path), and
    a 1500-byte MTU with driver-level chunking for larger test messages.

    The model is deliberately simpler than the OSIRIS one — no cell
    framing, no striping — because it only has to reproduce the latency
    and throughput character of mid-90s Ethernet: ~10 Mb/s on the wire, a
    per-frame interrupt tax, and a copy on every receive.

    Its figures are fixed: 10 Mb/s; 38 bytes of preamble, header, FCS and
    gap per frame; short frames padded to 46 payload bytes; a 32-slot
    receive ring; a receive copy of 3 CPU cycles per word; 25 µs of
    driver work per received frame and 20 µs per reassembled message
    (comparable to the OSIRIS driver's per-PDU cost, so Table 1's
    "identical conditions" comparison is fair). *)

type t

val create :
  Osiris_sim.Engine.t ->
  cpu:Osiris_os.Cpu.t ->
  bus:Osiris_bus.Turbochannel.t ->
  irq:Osiris_os.Irq.t ->
  irq_line:int ->
  t
(** An interface on a host. Frames are DMA'd across the same I/O bus model
    the OSIRIS board uses; every received frame raises [irq_line]. *)

val connect : t -> t -> unit
(** Attach two interfaces to one (full-duplex point-to-point) wire. The
    real thing was half-duplex CSMA/CD; with exactly two stations and
    request/response traffic the difference is negligible and is
    documented in DESIGN.md. *)

val send : t -> Bytes.t -> unit
(** Transmit a message, chunked into MTU-sized frames; blocks the calling
    process for queueing costs and transmit-ring backpressure. *)

val set_receiver : t -> (Bytes.t -> unit) -> unit
(** Upcall invoked (from the driver's receive path, after the per-frame
    interrupt and the copy) with each reassembled message. *)

type stats = {
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable interrupts : int;
  mutable bytes_copied : int;
  mutable ring_drops : int;
}

val stats : t -> stats
