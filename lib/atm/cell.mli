(** ATM cells as the OSIRIS adaptor sees them.

    A cell is 53 bytes on the wire: a 5-byte ATM header and a 48-byte
    payload of which the adaptation layer (AAL) claims 4 bytes, leaving
    {!data_size} = 44 bytes of user data per cell — the paper's "44 bytes,
    because of AAL overhead".

    The AAL header carries the per-cell sequence number used by the
    sequence-number reassembly strategy of §2.6 and the per-stream framing
    (end-of-message) bit used by the AAL5-style strategies. The ATM header
    carries the VCI — the early-demultiplexing key — and the extra
    "very last cell of the PDU" framing bit that §2.6 proposes for striped
    PDUs shorter than the stripe width. *)

type t = {
  vci : int;  (** virtual circuit identifier, 16 bits *)
  seq : int;  (** AAL sequence number: index of this cell within its PDU *)
  eom : bool;  (** AAL framing bit: last cell of its (per-link) stream *)
  last_of_pdu : bool;  (** ATM-header framing bit: very last cell of the PDU *)
  marked : bool;
      (** ATM-header congestion bit (the EFCI/ECN-CE analogue): set by a
          switch that enqueues the cell into a deep output queue, carried
          through reassembly to the receiving host so its transport can
          echo congestion back to the sender *)
  data : Bytes.t;  (** exactly {!data_size} bytes of user data *)
}

val wire_size : int
(** 53. *)

val payload_size : int
(** 48. *)

val aal_overhead : int
(** 4. *)

val data_size : int
(** 44 = [payload_size - aal_overhead]. *)

val make :
  vci:int ->
  seq:int ->
  eom:bool ->
  last_of_pdu:bool ->
  Bytes.t ->
  t
(** Build an unmarked cell; the data must be exactly {!data_size} bytes
    and the vci and seq must fit 16 bits. Hosts never set the congestion
    bit at origin; switches do. *)

val corrupt : t -> byte:int -> t
(** Copy of the cell with one data byte XORed with [0x5a] — the link-error
    injection primitive. [byte] is an index into [data]. *)
