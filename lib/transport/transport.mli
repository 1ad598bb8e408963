(** One reliable unidirectional connection over the host stack.

    This is the glue tying the pure {!Sender} / {!Receiver} state
    machines to real hosts: data segments flow on one virtual circuit
    (src → dst), acknowledgements on a second (dst → src), each encoded
    by {!Wire} and carried as ordinary PDUs through driver, board, SAR
    and (for multi-host topologies) switches. The receive handlers hang
    off each host's {!Osiris_xkernel.Demux}; the congestion echo is read
    from {!Osiris_xkernel.Msg.marked}, which the driver sets when any
    cell of the PDU crossed a switch queue past its marking threshold.

    Because the sender's retransmission timer fires in a plain engine
    callback — where the driver's potentially-blocking [send] must not
    be called — each direction owns a {e pump} process: the state
    machines enqueue encoded PDUs synchronously and the pump performs
    the actual [Driver.send]s in order. *)

type t

val attach :
  ?name:string ->
  ?config:Sender.config ->
  ?on_state:(Sender.state -> unit) ->
  Osiris_sim.Engine.t ->
  src:Osiris_core.Host.t ->
  dst:Osiris_core.Host.t ->
  data_tx_vci:int ->
  data_rx_vci:int ->
  ack_tx_vci:int ->
  ack_rx_vci:int ->
  deliver:(Bytes.t -> unit) ->
  unit ->
  t
(** Wire a connection over already-bound VCIs (for {!Osiris_core.Network}
    pair topologies, where the two hosts are linked back to back and the
    data/ack VCIs coincide on both sides: bind them with
    [Board.bind_vci] first). [deliver] receives the byte stream in
    order, one segment at a time. Hosts must already be started. *)

val connect_via :
  ?name:string ->
  ?config:Sender.config ->
  ?on_state:(Sender.state -> unit) ->
  Osiris_core.Network.topology ->
  src:int ->
  dst:int ->
  deliver:(Bytes.t -> unit) ->
  unit ->
  t
(** Open the two virtual circuits through the fabric
    ({!Osiris_core.Network.open_vc} in each direction) and {!attach}
    over them. *)

val send : t -> Bytes.t -> unit
(** Offer bytes to the send side (segmented, windowed, retransmitted as
    needed). *)

val close : t -> unit
(** Mark the stream complete; the connection reaches
    [Sender.Finished] once every offered byte is acked. *)

val state : t -> Sender.state
val sender : t -> Sender.t
val receiver : t -> Receiver.t

val garbled : t -> int
(** PDUs that reached the connection's demux bindings but failed
    {!Wire} decoding (e.g. a corrupted cell header surviving the AAL
    checks and landing on the wrong VC). *)

val invariants : t -> string list
(** {!Sender.invariants} plus {!Receiver.invariants}. *)
