(** Paths through the protocol graph (paper §3.1).

    "The x-kernel provides a mechanism for establishing a path through the
    protocol graph, where a path is given by the sequence of sessions that
    will process incoming and outgoing messages on behalf of a particular
    application-level connection. Each path is then bound to an unused VCI
    by the device driver."

    A path here records that binding: a stable id (the key fbuf pools are
    cached under), the VCI the adaptor demultiplexes on, and how many
    protection-domain boundaries its messages cross (driver → protocol
    server(s) → application), which is what the fbuf transfer costs
    depend on. VCIs are treated as an abundant resource: every connection
    gets one for its lifetime. *)

type t = {
  id : int;  (** stable identifier; the fbuf path-cache key *)
  vci : int;
  crossings : int;
      (** protection-domain boundaries a delivered message must cross *)
}

type registry

val create_registry : Demux.t -> registry
(** Paths allocate their VCIs from (and bind their handlers into) this
    demultiplexing table. *)

val establish :
  registry ->
  name:string ->
  crossings:int ->
  handler:(t -> Msg.t -> unit) ->
  t
(** Open a path: allocate a fresh VCI and bind the handler (which
    receives the path itself, so it can consult [crossings] for transfer
    costs) for the path's lifetime. *)
