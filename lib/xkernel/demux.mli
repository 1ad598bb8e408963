(** Early-demultiplexing table: VCI → path.

    The x-kernel establishes a {e path} through the protocol graph for each
    application-level connection and binds it to an otherwise unused VCI for
    the connection's lifetime — treating VCIs as an abundant resource (paper
    §3.1). This table is the host-side image of that binding: the driver
    looks up the VCI of a received PDU and upcalls the bound handler, which
    is the entry point of the connection's session chain. *)

type t

type handler = vci:int -> Msg.t -> unit

val create : unit -> t

val bind : t -> vci:int -> name:string -> handler -> unit
(** Raises [Invalid_argument], naming the existing binding and [name],
    if the VCI is already bound. *)

val deliver : t -> vci:int -> Msg.t -> bool
(** Upcall the handler bound to [vci]; [false] (message ignored) when
    unbound. *)

val fresh_vci : t -> int
(** An unused VCI (abundant-resource allocation). *)
