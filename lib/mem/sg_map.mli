(** Hardware scatter/gather map (virtual-address DMA).

    Models the virtual-to-physical translation buffer found on machines like
    the IBM RISC System/6000 and DEC 3000 AXP (paper §2.2): a fixed number
    of map slots the driver loads with frame mappings before a DMA transfer,
    so the adaptor can be handed one virtually contiguous range instead of a
    physical buffer list. Loading entries costs driver work per fragment, so
    fragmentation still matters — the point §2.2 closes on. *)

type t

val create : slots:int -> page_size:int -> t

val loads : t -> int
(** Cumulative number of slot loads, for cost accounting. *)

val program : t -> Pbuf.t list -> bool
(** Load mappings for the given physical buffers; [false] (nothing
    loaded) when the buffer list needs more slots than the map has. Each
    page of each buffer consumes a slot. *)
