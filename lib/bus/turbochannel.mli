(** Transaction-level model of the TURBOchannel I/O bus.

    The paper derives all of its hardware throughput bounds from three
    numbers: the bus moves one 32-bit word per cycle at 25 MHz (800 Mb/s
    peak), a DMA {e read} transaction (adaptor reading main memory, i.e. the
    transmit direction) pays 13 cycles of overhead, and a DMA {e write}
    (receive direction) pays 8 cycles. Hence 44-byte (11-word) transfers
    yield 11/(11+13)·800 = 367 Mb/s transmit and 11/(11+8)·800 = 463 Mb/s
    receive; 88-byte transfers yield 503 and 587 Mb/s (§2.5.1).

    Two arbitration topologies are modelled:
    - [Shared_bus] (DECstation 5000/200): every memory transaction — DMA,
      CPU cache fill, CPU write-through — serializes on one resource, so DMA
      and CPU activity steal bandwidth from each other (§4's explanation of
      the 340 Mb/s receive ceiling and the 80 Mb/s checksum collapse).
    - [Crossbar] (DEC 3000/600): DMA and CPU/memory traffic proceed
      concurrently on separate ports. *)

type topology = Shared_bus | Crossbar

type t

val create : Osiris_sim.Engine.t -> topology -> t
(** A TURBOchannel with the given arbitration topology. Its constants
    are fixed: 25 MHz, 4 bytes per cycle, 13 and 8 cycles of setup per
    DMA read and write (§2.5.1), and 15 and 4 cycles per programmed-I/O
    word read and write. *)

val cycle_ns : int
(** Duration of one bus cycle in nanoseconds: 40. *)

val peak_mbps : float
(** 800 Mb/s: one word per cycle. *)

(** The transaction operations below block the calling process for the
    transaction's duration, arbitrating per the topology. The adaptor's
    DMA engines are callback agents and use the [_then] forms, which
    schedule the same events ({!Osiris_sim.Resource.use_then}). *)

val dma_read : t -> bytes:int -> unit
(** Adaptor reads [bytes] from main memory (transmit direction). *)

val dma_write : t -> bytes:int -> unit
(** Adaptor writes [bytes] to main memory (receive direction). *)

val dma_read_then :
  t -> Osiris_sim.Process.agent -> bytes:int -> (unit -> unit) -> unit
(** {!dma_read} for a callback agent: [k] runs once the transaction
    ends. *)

val dma_write_then :
  t -> Osiris_sim.Process.agent -> bytes:int -> (unit -> unit) -> unit
(** {!dma_write} for a callback agent. *)

val cpu_access : t -> bytes:int -> overhead_cycles:int -> unit
(** CPU-side memory transaction (cache fill or write-back of [bytes], with
    the given setup overhead). Contends with DMA on [Shared_bus]; uses the
    separate memory port on [Crossbar]. *)

val pio_read_words : t -> words:int -> unit
(** Programmed I/O: CPU reads [words] 32-bit words from adaptor memory, one
    transaction each. Always crosses the I/O bus. *)

val pio_write_words : t -> words:int -> unit

val dma_transaction_ns : dir:[ `Read | `Write ] -> bytes:int -> int
(** Duration of a single DMA transaction, without queueing. *)

val max_dma_mbps : dir:[ `Read | `Write ] -> burst:int -> float
(** Closed-form §2.5.1 bound: sustained data rate of back-to-back DMA
    transactions of [burst] bytes. *)

val busy_stats : t -> Osiris_sim.Resource.stats
(** Utilization counters of the (I/O side of the) bus. *)
