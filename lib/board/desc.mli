(** Buffer descriptors exchanged through the dual-port memory (paper
    §2.1.1).

    Each descriptor names one physical buffer in main memory by physical
    address and length. A PDU is a chain of descriptors whose last element
    carries [eop]. On the transmit side the host fills descriptors and the
    board consumes them; the receive side uses one descriptor stream for
    free buffers (host → board) and one for filled buffers (board → host),
    where [len] is the number of bytes actually stored and [vci] identifies
    the stream for early demultiplexing. *)

type t = { addr : int; len : int; vci : int; eop : bool; marked : bool }

val words : int
(** Dual-port memory words a descriptor occupies (address word plus a
    packed len/vci/flags word): the unit of PIO cost accounting. *)

val v :
  addr:int -> len:int -> ?vci:int -> ?eop:bool -> ?marked:bool -> unit -> t
(** [len = 0] with [eop] is the abort marker the receive processor posts
    when it must abandon a PDU after some of its buffers were already
    handed to the host. [marked] (default [false], flags word bit) is the
    reassembled PDU's congestion bit: the receive processor sets it on the
    [eop] descriptor when any cell of the PDU arrived marked. *)

val total_len : t list -> int
(** Sum of the lengths of a chain: the bytes of the PDU it carries. *)

val chain_of_pbufs : vci:int -> Osiris_mem.Pbuf.t list -> t list
(** Descriptor chain for a PDU: one descriptor per physical buffer, [eop]
    set on the last. *)
