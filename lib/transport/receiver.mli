(** Reliable-transport receive side: in-order delivery with a bounded
    out-of-order buffer, cumulative + selective acks, congestion echo.

    Like {!Sender} this is a pure state machine over abstract hooks, so
    tests and the schedule explorer can drive it without a host stack.
    Segments at [rcv_nxt] are delivered (in order) immediately; segments
    ahead of it are buffered up to [window]; every arrival is answered
    with an ack carrying the cumulative edge, a 32-bit selective-ack
    bitmap over the buffer, and the ECE bit echoing whether {e this}
    PDU crossed a congested switch queue
    ({!Osiris_xkernel.Msg.marked}). *)

type stats = {
  mutable segs_received : int;
  mutable delivered_segs : int;
  mutable delivered_bytes : int;
  mutable duplicates : int;  (** below [rcv_nxt] or already buffered *)
  mutable out_of_window : int;  (** beyond [rcv_nxt + window]; dropped *)
  mutable marked_pdus : int;  (** arrivals carrying the congestion mark *)
  mutable acks_sent : int;
}

type t

val create :
  ?name:string ->
  window:int ->
  deliver:(seq:int -> Bytes.t -> unit) ->
  tx_ack:(ack:int -> sack:int -> ece:bool -> unit) ->
  unit ->
  t

val on_data : t -> seq:int -> marked:bool -> Bytes.t -> unit

val stats : t -> stats

val invariants : t -> string list
(** Checkable at any instant: [delivered_segs = rcv_nxt], buffer bounded
    by [window] and strictly inside [(rcv_nxt, rcv_nxt + window)]. Empty
    when healthy. *)
