(** §2.2 ablation: physical buffer fragmentation.

    A 16 KB application message, sent over UDP/IP, decomposes into a number
    of physical buffers that depends on three policies:

    - the IP MTU: a naive 4 KB MTU misaligns every fragment's data with
      page boundaries, so each fragment's data spans two pages and its
      header a third — "up to 14 physical buffers" for the message;
    - the §2.2 fix: an MTU of [k × page_size + header_size], which makes
      fragment boundaries coincide with page boundaries;
    - best-effort physically contiguous allocation of the message buffer,
      which collapses the data pages into one physical buffer.

    The experiment builds the message each way and counts the descriptors
    the driver would hand to the adaptor, plus the DMA boundary splits the
    transfer would incur. *)

type result = {
  label : string;
  fragments : int;  (** IP fragments *)
  physical_buffers : int;  (** descriptors across all fragments *)
  boundary_splits : int;  (** extra DMA transactions at buffer/page edges *)
  sg_map_loads : int;
      (** map-slot loads a virtual-DMA machine's driver would perform —
          §2.2's closing point: fragmentation costs survive even with a
          hardware scatter/gather map *)
}

val run :
  mtu:int ->
  aligned:bool ->
  contiguous:bool ->
  unit ->
  result

val table : unit -> Report.table
