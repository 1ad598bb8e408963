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
(** Open a path: allocate a fresh VCI, bind the handler (which receives
    the path itself, so it can consult [crossings] for transfer costs), and
    register the path for its lifetime. *)

val tear_down : registry -> t -> unit
(** Release the path and its VCI. *)

val find : registry -> vci:int -> t option

val active : registry -> t list
(** Currently established paths, most recent first. *)
