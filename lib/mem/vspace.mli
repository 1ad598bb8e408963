(** Virtual address spaces.

    A per-protection-domain page table mapping virtual pages to physical
    frames, with page wiring. The interesting operation for the paper is
    {!phys_buffers}: decomposing a virtually contiguous region into the list
    of physical buffers a DMA engine needs — the fragmentation phenomenon of
    §2.2 arises here, because consecutively allocated virtual pages land on
    scrambled physical frames. *)

type t

val create : Phys_mem.t -> t

val mem : t -> Phys_mem.t
val page_size : t -> int

val alloc : t -> len:int -> int
(** [alloc t ~len] reserves a fresh, virtually contiguous region of at least
    [len] bytes (rounded up to whole pages), backs every page with a frame
    from the allocator, and returns the region's virtual base address
    (page-aligned). *)

val alloc_offset : t -> len:int -> offset:int -> int
(** Like {!alloc} but returns an address [offset] bytes into the first page,
    modelling application messages that do not start page-aligned. [offset]
    must be smaller than the page size; one extra page is reserved if the
    data spills. *)

val alloc_contiguous : t -> len:int -> int option
(** Like {!alloc} but backed by physically contiguous frames (best effort):
    the OS support for contiguous allocation that §2.2 describes as an
    experiment. [None] when physical memory is too fragmented. *)

val free : t -> int -> unit
(** Release a region previously returned by an allocation function
    (identified by its base address) and return its frames. *)

val translate : t -> int -> int
(** Virtual to physical address translation. Raises [Page_fault] for an
    unmapped address. *)

exception Page_fault of int

val phys_buffers : t -> vaddr:int -> len:int -> Pbuf.t list
(** The physical buffers covering [\[vaddr, vaddr+len)], coalescing pages
    that happen to be physically adjacent. The list length is the physical
    buffer count the driver must process for this region. *)

val wire : t -> vaddr:int -> len:int -> unit
(** Mark every page of the region non-pageable (counted: a page may be wired
    multiple times). Required before handing addresses to the adaptor for
    DMA (paper §2.4). *)

val unwire : t -> vaddr:int -> len:int -> unit

val is_wired : t -> vaddr:int -> bool
(** Is the page containing [vaddr] wired at least once? *)

val wired_pages : t -> int
(** Number of distinct pages currently wired. *)
