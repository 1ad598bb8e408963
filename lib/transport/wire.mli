(** Wire format of the reliable transport.

    Data segments travel on the forward VC as an 8-byte header ([magic],
    flags, 30-bit sequence number) followed by the payload.
    Acknowledgements travel on the reverse VC as a fixed 12-byte PDU:
    cumulative ack [ack] (the next sequence number the receiver expects),
    a 32-bit selective-ack bitmap whose bit [i] reports segment
    [ack + 1 + i] as buffered out of order, an ECE flag echoing the
    fabric's congestion mark ({!Osiris_xkernel.Msg.marked}) of the PDU
    being acknowledged, and the path entropy byte.

    Both PDU types start with a magic byte so a PDU landing on the wrong
    VC (a corrupted cell header that survived the AAL checks) is rejected
    by [decode_*] instead of being misparsed. *)

val data_header_size : int

val encode_data : seq:int -> Bytes.t -> Bytes.t
val decode_data : Bytes.t -> (int * Bytes.t, string) result
(** [Ok (seq, payload)]. *)

val encode_ack_mp : ack:int -> sack:int -> ece:bool -> entropy:int -> Bytes.t
(** The 12-byte ack PDU, with [entropy] (the path index the acknowledged
    PDU arrived on, 0–255) echoed in byte 10; a single-path connection
    sends 0. *)

val decode_ack_mp : Bytes.t -> (int * int * bool * int, string) result
(** [Ok (ack, sack_bitmap, ece, entropy)]. *)
