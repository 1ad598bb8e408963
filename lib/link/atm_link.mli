(** The striped physical link (paper §2.6).

    OSIRIS reaches 622 Mb/s by striping cells round-robin over four 155.52
    Mb/s channels. Each channel delivers its own cells in FIFO order, but
    the channels are mutually skewed by fixed path/multiplexing
    differences — the paper's "skew" class of misordering: cell [k] goes
    to link [k mod n]; relative order is preserved within a link and
    arbitrary (within the configured per-channel skew) across links.

    A link object is unidirectional. Sending waits for
    serialization backpressure (each channel transmits one 53-byte cell at a
    time, with a small on-board output FIFO of bookable slots); delivery
    pushes cells into the receiving adaptor's input FIFO, dropping (and
    counting) cells when that FIFO overflows. A cell arrives 1 µs of
    propagation plus its channel's skew after it leaves the wire, and
    each channel's output FIFO holds two cells.

    Every fault is set at runtime (see [Osiris_fault.Injector]): loss,
    payload and header corruption, duplication, per-channel carrier loss
    (the stripe narrows to the surviving channels) and a receive-FIFO
    squeeze. A link starts with none. While header corruption and
    duplication stay at 0 they draw nothing from the link's RNG, so
    seeded runs from before those faults existed replay identically. *)

type config = {
  nlinks : int;  (** stripe width; 1 disables striping *)
  link_rate_bps : int;  (** line rate of each channel (155.52 Mb/s) *)
  skew : Osiris_sim.Time.t array;
      (** fixed extra delay per channel (length [nlinks]); models path-length
          and multiplexing-equipment differences *)
}

val default_config : config
(** 4 × 155.52 Mb/s, no skew. *)

val rx_fifo_cells : int
(** The receiving adaptor's input FIFO: 32 cells. *)

type t

val create : Osiris_sim.Engine.t -> Osiris_util.Rng.t -> config -> t

val config : t -> config

val send_then :
  t -> Osiris_sim.Process.agent -> Osiris_atm.Cell.t -> (unit -> unit) -> unit
(** [send_then t a cell k] transmits the next cell (striped round-robin
    over the live channels) from callback agent [a], then runs [k]. When
    the target channel's output FIFO is fully booked, [a] sleeps
    ({!Osiris_sim.Process.sleep_then}) until a slot frees. With every
    channel down the cell is counted as [dropped_link_down] and
    vanishes. *)

val send_wait : t -> Osiris_atm.Cell.t -> Osiris_sim.Time.t
(** The first half of {!send_then}: number the cell on the trunk and
    pick its channel, and return how long the sender must wait for a
    slot in that channel's output FIFO (0: none). The sender then sleeps
    that long and calls {!book}; a fiber does
    [let w = send_wait t c in if w > 0 then Process.sleep eng w; book t c].
    Raises
    [Invalid_argument] while an earlier cell waits unbooked. *)

val book : t -> Osiris_atm.Cell.t -> unit
(** The second half: book the channel {!send_wait} picked and schedule
    the cell's delivery (or its loss). A no-op for a cell {!send_wait}
    counted lost to dead channels. *)

val recv : t -> int * Osiris_atm.Cell.t
(** Next arrived cell with the channel it arrived on, in arrival order.
    Blocks the calling process when none is pending. *)

val recv_then :
  t -> Osiris_sim.Process.agent -> (int * Osiris_atm.Cell.t -> unit) -> unit
(** {!recv} for a callback agent ({!Osiris_sim.Mailbox.recv_then}). *)

(** {2 Runtime fault injection}

    Setters for the probabilistic knobs take effect for the next cell
    sent; they are safe to call from engine callbacks. *)

val set_drop_prob : t -> float -> unit
val set_corrupt_prob : t -> float -> unit
val set_dup_prob : t -> float -> unit
val set_corrupt_header_prob : t -> float -> unit

val set_link_state : t -> link:int -> bool -> unit
(** Raise or cut one channel's carrier. Cells in flight on a cut channel
    are dropped on arrival ([dropped_link_down]); newly sent cells
    re-stripe over the surviving channels in ascending order. Registered
    {!on_link_change} callbacks run synchronously on every transition. *)

val nlive : t -> int
(** Channels currently carrying traffic (= [nlinks] when healthy). *)

val live_links : t -> int list
(** Physical indices of the live channels, ascending. *)

val on_link_change : t -> (unit -> unit) -> unit
(** Subscribe to carrier transitions (both directions). Callbacks must not
    suspend; spawn a process for work that does. *)

val set_rx_fifo_limit : t -> int -> unit
(** Squeeze (or restore) the receive FIFO's effective capacity; clamped to
    [1, {!rx_fifo_cells}]. Arrivals beyond the limit count as
    [dropped_fifo]. *)

val set_cell_filter : t -> (int -> Osiris_atm.Cell.t -> bool) option -> unit
(** Deterministic per-cell drop hook for targeted fault injection: called
    at delivery with the channel and cell; returning [false] discards the
    cell (counted as [dropped_net]). [None] removes the hook. *)

type stats = {
  cells_sent : int;
  cells_delivered : int;
  dropped_fifo : int;  (** lost to receive-FIFO overflow/squeeze *)
  dropped_net : int;  (** lost in the network (drop_prob/filter) *)
  corrupted : int;
  reordered : int;
      (** deliveries that overtook a cell sent earlier on another channel *)
  duplicated : int;  (** duplicate deliveries injected *)
  header_corrupted : int;  (** VCI/seq mangles injected *)
  dropped_link_down : int;  (** lost to a dead channel *)
}

val stats : t -> stats

val offered : t -> int
(** [cells_sent + duplicated]: the total the conservation parts must sum
    to once the trunk has drained. *)

val conservation : t -> (string * int) list
(** Disposition buckets for every offered cell — delivered, fifo drop,
    network drop, dead-link drop. Feed to [Invariants.balance] with
    [offered] as the total at quiescence. Corruption/reordering/header
    mangles tag cells without changing their disposition and so are
    deliberately absent. *)
