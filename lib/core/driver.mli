(** The OSIRIS channel driver.

    One instance drives one board channel (the kernel's channel 0, or an
    application device channel): it owns the receive buffer pool, keeps the
    free-buffer queue stocked, turns transmit messages into wired descriptor
    chains, detects transmit completion by tail-pointer advance, and drains
    the receive queue from a thread woken by the (coalesced) receive
    interrupt. "Linked with the application is an ADC channel driver, which
    performs essentially the same functions as the in-kernel OSIRIS device
    driver" (paper §3.2) — hence a single implementation used by both.

    Cache invalidation policy (paper §2.3): [Eager] invalidates every
    received buffer before use (one CPU cycle per word); [Lazy] relies on
    end-to-end checks — here the UDP checksum and, for raw-ATM test traffic,
    the application's own verification. *)

type invalidation =
  | Lazy  (** rely on end-to-end checksums; invalidate only on failure *)
  | Eager  (** invalidate each received buffer (1 cycle/word, §2.3) *)
  | Eager_full
      (** §2.3's footnote: swap/flush the entire cache per received PDU —
          a fast instruction whose true cost is every subsequent miss *)

type stats = {
  pdus_sent : int;
  pdus_received : int;
  aborted_chains : int;
      (** partial chains discarded after a board-side PDU abort *)
  timeout_aborts : int;
      (** partial chains discarded after a board reassembly-timeout sweep
          (distinguished by the marker's address; see
          {!Osiris_board.Board.timeout_marker_addr}) *)
  crc_drops : int;
  tx_full_stalls : int;  (** times send found the transmit queue full *)
  rx_wakeups : int;  (** receive-thread wakeups (≈ interrupts taken) *)
}

type t

val create :
  cpu:Osiris_os.Cpu.t ->
  cache:Osiris_cache.Data_cache.t ->
  wiring:Osiris_os.Wiring.t ->
  board:Osiris_board.Board.t ->
  channel:Osiris_board.Board.channel ->
  vs:Osiris_mem.Vspace.t ->
  costs:Machine.driver_costs ->
  demux:Osiris_xkernel.Demux.t ->
  invalidation:invalidation ->
  rx_buffer_size:int ->
  rx_pool_buffers:int ->
  contiguous_buffers:bool ->
  ?cpu_priority:int ->
  unit ->
  t
(** Allocates the receive pool ([contiguous_buffers] selects best-effort
    physically contiguous buffers of [rx_buffer_size]; otherwise buffers are
    page-sized, reproducing the §2.2 restriction) and pre-fills the
    channel's free queue. *)

val start : t -> unit
(** Spawn the receive thread and the transmit-completion watcher. *)

val send : t -> vci:int -> ?from_user:bool -> Osiris_xkernel.Msg.t -> unit
(** Queue a PDU for transmission; blocks while the transmit queue is full
    (requesting the half-empty interrupt, §2.1.2). Ownership of the message
    passes to the driver, which disposes it after the board has fetched the
    data. [from_user] charges the kernel-entry cost — false for in-kernel
    tests and ADC channel drivers. *)

val on_rx_nonempty : t -> unit
(** To be called by the host's interrupt handler for this channel's
    receive-queue empty→non-empty interrupt. *)

val on_tx_half_empty : t -> unit
(** To be called for the transmit half-empty interrupt. *)

val stats : t -> stats

val pool_available : t -> int
(** Buffers currently idle in the pool. *)

val outstanding_buffers : t -> int
(** Buffers delivered upstream and not yet recycled (observability). *)

val buffer_regions : t -> Osiris_mem.Pbuf.t list
(** Physical extents of every receive buffer this driver owns — the pages
    an ADC's on-board protection list must authorize. *)

val total_buffers : t -> int
(** Size of the circulating receive pool: the conserved quantity of the
    buffer-conservation invariant. *)

val channel : t -> Osiris_board.Board.channel
(** The board channel this driver serves. *)

val trailer_check :
  Osiris_mem.Phys_mem.t -> Osiris_board.Desc.t list -> (int, string) result
(** The receive path's AAL check of a PDU whose framed bytes fill the
    chain's buffers in order: {!Osiris_atm.Sar.check_trailer} with the
    CRC folded over host memory where the bytes lie, and only the 8
    trailer bytes copied: the answer a check of the concatenated bytes
    gives. *)
