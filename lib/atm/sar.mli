(** Segmentation and reassembly (the job of the OSIRIS i960 firmware).

    {2 Framing}

    A PDU is framed AAL5-style before segmentation: the payload is padded so
    that the total is a whole number of 44-byte cell datas, with the last 8
    bytes holding a trailer of [payload length (u32 BE)] and [CRC-32] over
    everything that precedes the CRC field. The CRC is the end-to-end error
    check that the lazy cache-invalidation scheme (paper §2.3) and the link
    error injection exercises rely on.

    {2 Reassembly strategies (paper §2.6)}

    - [In_order]: cells of a VC are assumed to arrive in order; each cell's
      data goes right after the previous one. Correct without striping;
      silently mis-places data when skewed (the CRC then catches it).
    - [Seq_number]: the AAL sequence number addresses each cell's data at
      [seq × 44]; tolerates arbitrary reordering within the 16-bit sequence
      space at the price of more per-cell work.
    - [Per_link n]: the strategy the authors implemented — view a PDU
      striped over [n] links as [n] interleaved sub-streams, each in order;
      a cell that is the [i]-th arrival of its PDU on link [l] carries data
      for offset [(i·n + l) × 44]. Completion is declared when every
      sub-stream has seen its framing bit (the ATM-header "very last cell"
      bit covers PDUs shorter than [n] cells). *)

type strategy = In_order | Seq_number | Per_link of int

val pp_strategy : Format.formatter -> strategy -> unit

(** {2 Segmentation} *)

val trailer_size : int
(** 8 bytes: length (u32) + CRC-32 (u32). *)

val framed_len : int -> int
(** [framed_len n] is the total framed size (payload + pad + trailer) of an
    [n]-byte PDU: the smallest multiple of 44 that fits [n + 8]. *)

val cells_per_pdu : int -> int
(** [framed_len n / 44]. *)

val frame_into : Bytes.t -> len:int -> unit
(** [frame_into buf ~len] frames, in place, the [len]-byte PDU at the
    front of [buf]: it zeroes the pad and writes the trailer, so
    [buf.[0, framed_len len)] is the framed PDU. [buf] must be at least
    that long. *)

val cut : vci:int -> nlinks:int -> Bytes.t -> ncells:int -> Cell.t array
(** The first [ncells] cells of a framed buffer, each with a fresh copy of
    its 44 bytes, numbered and flagged as {!segment} does. *)

val segment : vci:int -> nlinks:int -> Bytes.t -> Cell.t list
(** Frame a PDU and cut it into cells. [nlinks] is the stripe width the
    cells will be sent over (1 = no striping): it determines which cells
    carry the per-stream framing bit. Cells are returned in transmission
    order with consecutive [seq] numbers; cell [k] belongs to link
    [k mod nlinks]. Framing is {!frame_into} on a copy of the PDU, then
    {!cut}. *)

val check_trailer :
  total:int -> crc:int32 -> Bytes.t -> off:int -> (int, string) result
(** The receive-side check of a framed PDU of [total] bytes, given [crc],
    the CRC-32 ({!Osiris_util.Crc32.compute}) of its first [total - 4]
    bytes, and its 8 trailer bytes at [off] in the buffer. Returns the
    payload length, or the reason the PDU is bad: a framed length that
    is no whole number of cells, a CRC mismatch (corrupted, mis-placed
    or stale data) or a length field that disagrees with [total]. The
    buffer is not read when [total] is bad. *)

(** {2 Reassembly} *)

type placement = {
  offset : int;  (** byte offset of this cell's data within the framed PDU *)
  cell : Cell.t;
}

type outcome =
  | Placed of placement  (** store the data; PDU not complete yet *)
  | Completed of placement * int
      (** store the data; the framed PDU is complete with the given total
          framed length *)
  | Rejected of string  (** drop the cell (overflow, duplicate, bad state) *)

type t
(** Reassembly state for one PDU of one VC. *)

val create : strategy -> max_cells:int -> t

val push : t -> link:int -> Cell.t -> outcome
(** Feed the next cell as received ([link] is the physical link it arrived
    on, used by [Per_link]). The caller is responsible for actually storing
    [placement.cell.data] at [placement.offset] (the receive processor turns
    this into a DMA command). *)

val marked_seen : t -> bool
(** Has any cell of the current PDU carried the congestion (marked) bit?
    Latched by {!push} — including cells whose placement was rejected —
    and cleared by {!reset}. The receive processor copies it onto the
    PDU's final filled-buffer descriptor so the congestion signal
    survives reassembly. *)

val in_progress : t -> bool
(** Cells of a PDU have arrived but the PDU is not yet complete. *)

val all_links_finished : t -> bool
(** [Per_link] only: every sub-stream of the current PDU has shown its
    framing bit. If the PDU is still incomplete at that point, cells were
    lost and the reassembly can never finish. *)

val link_finished : t -> link:int -> bool
(** [Per_link] only: has this link's sub-stream of the current PDU shown
    its framing bit? A further cell on that link belongs to the {e next}
    PDU and must be held back until the current one completes. *)

val reset : t -> unit
(** Make the state ready for the next PDU of the same VC. *)
