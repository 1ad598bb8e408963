(** IP: fragmentation, reassembly, header checksum.

    This is the layer whose interaction with the page-based buffer system
    drives paper §2.2: unless the MTU is chosen as
    [k × page_size + header_size], fragment boundaries fall mid-page and
    every fragment's data straddles two physical pages, inflating the
    physical-buffer count the driver must process (up to 14 buffers for a
    16 KB message with a naive 4 KB MTU). The [aligned_mtu] knob applies
    the paper's fix.

    Fragmentation and reassembly are zero-copy: fragments are views of the
    original message; the reassembled message is the concatenation of the
    fragment views, and disposing it releases every underlying fragment. *)

type addr = int32

val header_size : int
(** 20 bytes. *)

type config = {
  mtu : int;  (** maximum IP datagram size handed to the driver *)
  aligned_mtu : bool;
      (** §2.2 policy: snap the per-fragment data size down to a multiple of
          the page size, so fragment boundaries coincide with page
          boundaries *)
}

val default_config : config
(** 16 KB MTU (the paper's configuration), aligned. *)

val fragment_data_size : config -> page_size:int -> int
(** Bytes of payload each full fragment carries under this configuration
    (always a multiple of 8, as IP requires). *)

type stats = {
  mutable datagrams_sent : int;
  mutable fragments_sent : int;
  mutable fragments_received : int;
  mutable datagrams_delivered : int;
  mutable header_checksum_errors : int;
  mutable reassembly_drops : int;
}

type t

val create :
  Ctx.t ->
  config ->
  src:addr ->
  page_size:int ->
  send:(Osiris_xkernel.Msg.t -> unit) ->
  deliver:(proto:int -> src:addr -> Osiris_xkernel.Msg.t -> unit) ->
  t
(** [send] hands one fragment (header pushed) to the layer below (the
    driver); [deliver] hands one reassembled datagram payload up. *)

val output : t -> dst:addr -> proto:int -> Osiris_xkernel.Msg.t -> unit
(** Fragment (if needed), prepend headers, and send. Charges per-fragment
    CPU cost. The caller keeps ownership of [msg] (fragments are views). *)

val input : t -> Osiris_xkernel.Msg.t -> unit
(** Parse and verify one received fragment; deliver upward when its
    datagram completes. Takes ownership of [msg]. A header must pass its
    checksum and carry [msg]'s length as its total length; one that does
    not is counted in [header_checksum_errors], invalidated in the cache
    and read again, and the fragment is dropped if it still fails. *)

val stats : t -> stats

val partial_reassemblies : t -> int
(** Datagrams currently awaiting fragments (observability). *)

val fragment_images :
  ?id:int ->
  config ->
  page_size:int ->
  src:addr ->
  dst:addr ->
  proto:int ->
  Bytes.t ->
  Bytes.t list
(** Pure helper: the raw on-the-wire fragment images (header + payload
    slice) [output] would produce for this payload. Used by the
    receive-side experiments to program the board's fictitious-PDU
    generator with protocol-valid traffic. *)
