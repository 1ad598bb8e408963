(** The transport glue: one reliable connection over a fabric, sprayed
    across its equal-cost path set.

    This is the only code that ties the pure {!Osiris_transport.Sender}
    and {!Osiris_transport.Receiver} state machines to hosts. Spray
    opens one complete VCI chain per equal-cost path
    ({!Osiris_core.Network.open_vc_paths}; a star has one) and one ack
    VC, and picks a path {e per PDU} at transmission time. Each data
    segment and ack is encoded by {!Osiris_transport.Wire} and carried
    as an ordinary PDU through driver, board, SAR and switches; the
    congestion echo is read from {!Osiris_xkernel.Msg.marked}. The
    sender's retransmission timer fires in a plain engine callback,
    where the driver's potentially-blocking send must not be called, so
    each direction owns a {e pump} process that performs the sends in
    order.

    Because every path is its own VCI, cells of PDUs in flight on
    different paths never interleave within a VCI, so the board's
    striped reassembly is untouched; the receiver learns a PDU's path
    from which VCI delivered it and echoes it as the entropy byte of the
    ack, which closes the recycling loop the {!Reps} balancer feeds
    on.

    Three selection policies, so experiments can compare under identical
    traffic: [Reps] (adaptive, recycled entropy), [Static_hash] (the
    classic ECMP strawman — one hash-chosen path for the connection's
    whole life, collisions and all) and [Single] (path 0, no
    multipath). Acks travel the first reverse path in every mode. *)

type mode = Reps | Static_hash | Single

type t

val connect :
  ?name:string ->
  ?config:Osiris_transport.Sender.config ->
  ?on_state:(Osiris_transport.Sender.state -> unit) ->
  ?mode:mode ->
  Osiris_core.Network.topology ->
  src:int ->
  dst:int ->
  deliver:(Bytes.t -> unit) ->
  unit ->
  t
(** Open one data VC [src -> dst] per equal-cost path and one ack VC
    [dst -> src], wire sender, receiver, demux bindings and the send
    pumps, and return the connection. The REPS explore order is
    scrambled by a function of the endpoints. [mode] defaults to
    [Reps]. *)

val send : t -> Bytes.t -> unit
val close : t -> unit
val state : t -> Osiris_transport.Sender.state
val sender : t -> Osiris_transport.Sender.t
val receiver : t -> Osiris_transport.Receiver.t

val garbled : t -> int
(** PDUs that reached the connection's data or ack VCIs but failed
    {!Osiris_transport.Wire} decoding (e.g. a corrupted cell header
    surviving the AAL checks and landing on the wrong VC). The
    transport recovers the bytes; this only counts them. *)

val reps : t -> Reps.t option
(** The balancer, in [Reps] mode. *)

val npaths : t -> int
val mvc : t -> Osiris_core.Network.mvc

val sends : t -> int -> int
(** Data-PDU hand-offs to path [p] so far (first transmissions and
    retransmissions). *)

val last_send : t -> int -> Osiris_sim.Time.t
(** Instant of the most recent hand-off to path [p] ([Time.zero] if
    never used) — the signal the reroute-latency metric watches: after a
    fault, the last hand-off to a path crossing the failed element dates
    the spray's migration. *)

val invariants : t -> string list
(** Sender, receiver and balancer invariants plus spray bookkeeping
    (per-path send counts summing to total transmissions). *)
