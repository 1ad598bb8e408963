(** The OSIRIS network adaptor.

    Two mostly independent halves — send and receive — each controlled by a
    25 MHz Intel 80960 (modelled as a callback agent with a per-cell cycle
    budget), communicating with the host through descriptor queues in
    dual-port memory (two i960 cycles per word touched) and moving all
    network data by DMA ({!Osiris_bus}). A PDU reassembles into at most
    8192 cells.

    {2 Channels}

    The dual-port memory is partitioned into sixteen 4 KB pages per
    direction, each holding a transmit queue (transmit side) or a
    free-buffer/receive queue pair (receive side). Channel 0 belongs to the
    operating system; the rest can be opened as {e application device
    channels} (paper §3.2) with a VCI set, a transmit priority, and a list
    of authorized physical pages that the on-board processors enforce,
    raising a protection-violation interrupt on an unauthorized buffer
    address.

    {2 Transmit path}

    The host enqueues a PDU as a chain of buffer descriptors. The transmit
    processor reads the chain, segments the (AAL5-framed) PDU into cells,
    fetches each cell's data by DMA — stopping at page boundaries and buffer
    ends, per the modified DMA controller of §2.5.2 — and hands cells to the
    striped link. Channels are served by strict priority and, within a
    priority level, cell-by-cell round-robin (the fine-grained multiplexing
    of §2.5.1). Completion is signalled by tail-pointer advance, never by
    interrupt; a host that found the queue full can request a single
    interrupt at the half-empty mark (§2.1.2).

    {2 Receive path}

    The receive processor reads (link, cell) pairs from the input FIFO,
    demultiplexes on the VCI to a channel and its reassembly state, decides
    the host memory address of the payload (any {!Osiris_atm.Sar.strategy}),
    and issues one DMA command per cell — or one per {e two} cells when
    double-cell DMA is enabled and two successive payloads land contiguously
    (§2.5.1). Filled buffers are posted to the channel's receive queue; an
    interrupt is asserted only on that queue's empty → non-empty transition.
    When a channel has no free buffers, the PDU is dropped on the board,
    before it costs the host anything (§3.1's priority-drop behaviour). *)

module Sar = Osiris_atm.Sar

type dma_mode = Single_cell | Double_cell

type tx_mux = Cell_interleave | Pdu_at_once
(** Transmit multiplexing granularity (§2.5.1): interleave cells of
    different channels' PDUs (fine-grained, good for latency), or finish
    each PDU before starting another (coarse: simpler, but a small message
    waits behind a whole bulk PDU). *)

type config = {
  dma_mode : dma_mode;
  tx_mux : tx_mux;
  queue_size : int;  (** descriptor slots per queue (paper: 64) *)
  locking : Desc_queue.locking;
  reassembly : Sar.strategy;
  nlinks : int;  (** stripe width segmentation targets *)
  tx_cycles_per_cell : int;  (** transmit processor work per cell *)
  rx_cycles_per_cell : int;  (** receive processor work per cell *)
  tx_combine_saving_cycles : int;
      (** transmit cycles saved on the second cell of a double-cell fetch *)
  reassembly_timeout : Osiris_sim.Time.t;
      (** abort a VC's reassembly after this much time without a placed
          cell (0 = disabled, the default): the recovery path for cells
          lost on an otherwise quiet VC, which no later traffic would
          ever abandon *)
  irq_reassert : Osiris_sim.Time.t;
      (** watchdog period re-asserting [Rx_nonempty] while a receive
          queue stays backed up (0 = disabled, the default): recovery
          from a lost coalesced interrupt *)
}

val default_config : config

val n_channels : int
(** Channels, one dual-port queue page each per direction: 16. *)

type interrupt_reason =
  | Rx_nonempty of int  (** channel id *)
  | Tx_half_empty of int
  | Protection_violation of int

type stats = {
  cells_sent : int;
  cells_received : int;
  pdus_sent : int;
  pdus_received : int;
  dma_tx_transactions : int;
  dma_rx_transactions : int;
  combined_dmas : int;  (** receive DMAs that carried two cells *)
  boundary_splits : int;
      (** extra transactions forced by page/buffer boundaries *)
  pdus_dropped_no_buffer : int;
  cells_dropped : int;
  reassembly_errors : int;
  protection_faults : int;
  unknown_vci_cells : int;
  reassembly_timeouts : int;
      (** stuck reassemblies swept by the timeout *)
  restripe_aborts : int;
      (** in-flight reassemblies aborted by a stripe-width change *)
  interrupts_suppressed : int;  (** eaten by the fault filter *)
  irq_reasserts : int;  (** watchdog re-assertions *)
}

type t
type channel

val create :
  Osiris_sim.Engine.t ->
  bus:Osiris_bus.Turbochannel.t ->
  mem:Osiris_mem.Phys_mem.t ->
  on_interrupt:(interrupt_reason -> unit) ->
  ?on_dma_write:(addr:int -> len:int -> unit) ->
  config ->
  t
(** [on_dma_write] is how the host's cache model observes receive DMA (to
    leave stale lines or update them, per its coherence mode). No DMA
    transaction crosses a page of [mem]. *)

val config : t -> config
val engine : t -> Osiris_sim.Engine.t
val stats : t -> stats

val attach : t -> tx_link:Osiris_link.Atm_link.t -> rx_link:Osiris_link.Atm_link.t -> unit
(** Connect the board to its outgoing and incoming striped links. *)

val frame_chain :
  t -> vci:int -> nlinks:int -> Desc.t list -> Osiris_atm.Cell.t array
(** The transmit processor's segmentation of a loaded chain: the chain's
    bytes gathered into the board's framing buffer, framed there
    ({!Osiris_atm.Sar.frame_into}) and cut into cells
    ({!Osiris_atm.Sar.cut}). The same cells as {!Osiris_atm.Sar.segment}
    of the concatenated bytes. *)

val start : t -> unit
(** Start the transmit and receive pipelines: the transmit processor,
    the transmit DMA engine and the link sender, and, once a receive
    side is attached, the receive processor, the receive DMA engine and
    (with [reassembly_timeout] set) the reassembly sweeper. Each is a
    callback agent ({!Osiris_sim.Process.agent}); an exception in one
    leaves the engine as [Process_failure] under its name ([tx-processor],
    [tx-dma], [tx-sender], [rx-processor], [rx-dma],
    [reassembly-sweeper]). Call once, after {!attach} (or after
    {!start_fictitious_source}). *)

val start_fictitious_source :
  t -> pdus:(int * Bytes.t) list -> ?rate_mbps:float -> unit -> unit
(** Program the receive processor to synthesize the given (VCI, PDU) pairs,
    cyclically, at the given data rate (default: the 516 Mb/s payload rate
    of a striped OC-12), instead of reading the link — the paper's §4
    receive-side experiment. The source is the callback agent
    [fictitious-source], started at once; it waits while the board's
    input FIFO ({!Osiris_link.Atm_link.rx_fifo_cells} cells, as when a
    link feeds it) is full. Must be called instead of {!attach}. *)

(** {2 Channels} *)

val kernel_channel : t -> channel

val open_channel : t -> ?priority:int -> unit -> channel
(** Allocate one of the remaining queue-page pairs (an ADC). Lower
    [priority] is served first on transmit. Raises [Failure] when all pages
    are taken. *)

val channel_id : channel -> int
val tx_queue : channel -> Desc_queue.t
val free_queue : channel -> Desc_queue.t
val rx_queue : channel -> Desc_queue.t

val set_allowed_pages : channel -> Osiris_mem.Pbuf.t list option -> unit
(** Physical ranges this channel may name in descriptors; [None] (the
    kernel's setting) means unrestricted. *)

val set_priority : channel -> int -> unit

val bind_vci : t -> vci:int -> channel -> unit
(** Route incoming cells with this VCI to the channel. Each path/connection
    binds its own VCI — VCIs are treated as an abundant resource (§3.1). *)

val supply_vci_buffer : t -> vci:int -> Desc.t -> bool
(** Host-side: push a preallocated per-VCI buffer (a cached fbuf, §3.1) that
    the receive processor will prefer over the channel's generic free queue
    for this VCI. Charged like a free-queue enqueue. [false] when the
    per-VCI queue is full. *)

val vci_buffer_count : t -> vci:int -> int

(** {2 Demultiplexing cost accounting}

    The per-cell VCI lookup runs through an {!Osiris_classify.Table};
    these expose its probe statistics (the demux_scale experiment's cost
    inputs), its analytic footprint, and its structural audit. *)

val demux_stats : t -> Osiris_classify.Table.probe_stats
val reset_demux_stats : t -> unit

val demux_resident_bytes : t -> int
(** Analytic resident size of the classification table itself (not the
    per-VC reassembly state behind it). *)

val demux_vcs : t -> int
(** Number of currently bound VCIs. *)

val demux_check : t -> string list
(** Structural invariants of the classification table. Empty =
    clean. *)

(** {2 Fault injection and recovery accounting} *)

val set_irq_filter : t -> (interrupt_reason -> bool) option -> unit
(** Install (or remove) an interrupt-loss filter: a filter returning
    [false] eats the assertion (counted as [interrupts_suppressed]).
    Recovery from eaten [Rx_nonempty] assertions requires the
    [irq_reassert] watchdog. *)

val set_free_gate : t -> ch:int -> bool -> unit
(** Gate (or ungate) one channel's generic free queue: while gated, the
    board behaves as if the host had stopped replenishing it — PDU
    arrivals needing a fresh buffer are dropped and counted
    ([pdus_dropped_no_buffer]). Descriptors already in the queue stay
    there (buffer conservation holds), per-VCI private buffers keep
    working, and other channels are unaffected. The per-ADC free-queue
    starvation fault ([freestarve#N] in {!Osiris_fault.Plan}). *)

val free_gated : t -> ch:int -> bool

val timeout_marker_addr : int
(** The [addr] field of abort markers (len 0, eop) emitted by the
    reassembly-timeout sweeper; board-decision aborts use 0. Lets the
    driver account the two causes separately. *)

val held_buffers : t -> int
(** Receive buffers currently owned by the board across all VCs: cached
    per-VCI fbufs plus buffers of in-progress PDUs not yet posted to a
    receive queue. Meaningful at quiescence (buffers riding an in-flight
    DMA command are in neither side's count). *)

val reassemblies_in_progress : t -> int

val oldest_reassembly_age : t -> Osiris_sim.Time.t option
(** Age (now - last placement) of the most-stale in-progress reassembly;
    [None] when all VCs are idle. *)
