(** Host main memory.

    A byte-addressable store with a frame (physical page) allocator.
    The allocator hands out frames in a {e scrambled} order by default: this
    reproduces the central fact of paper §2.2 that virtually contiguous
    pages are generally not physically contiguous, so a multi-page PDU
    decomposes into one physical buffer per page. A best-effort contiguous
    allocation mode models the OS support the authors were experimenting
    with.

    Storage is sparse: memory is kept in 1 KB blocks (a page, if pages
    are smaller), a block costs host memory only once it is first
    written, and bytes never written read as zero. A host's image is
    therefore as large as what its run writes, not its configured size
    or the pages its writes touch.

    The allocation order is part of the model, not an implementation
    detail: it fixes every physical address handed out, hence how many
    physical buffers a PDU spans (the §2.2 buffer counts) and which
    lines of the physically indexed data cache a buffer maps to. The
    order is the one a list of free frames gives: [alloc_frame] takes
    the first free frame, [free_frame] returns a frame to the front, and
    [alloc_contiguous] removes its run and leaves the others in place.
    [alloc_frame] and [free_frame] cost O(1); [alloc_contiguous] costs
    one scan for the run plus O(1) per frame it takes. *)

type t

val create : ?scramble:Osiris_util.Rng.t -> size:int -> page_size:int -> unit -> t
(** [create ~size ~page_size ()] makes a memory of [size] bytes ([size] must
    be a multiple of [page_size], and [page_size] a power of two). When
    [scramble] is given, the free-frame
    list is shuffled with it; otherwise frames are handed out in address
    order (useful in unit tests). *)

val page_size : t -> int

val free_frames : t -> int

val resident_frames : t -> int
(** Frames written at least once: the frames that cost host memory, each
    for the blocks written in it. *)

val alloc_frame : t -> int
(** Allocate one frame; returns its physical base address. Raises
    [Out_of_memory] when exhausted. *)

val alloc_contiguous : t -> nframes:int -> int option
(** Best-effort allocation of [nframes] physically contiguous frames;
    returns the base address of the lowest-addressed such run, or [None]
    if no run is free. Models dynamic contiguous allocation (paper §2.2). *)

val free_frame : t -> int -> unit
(** Return a frame (by base address) to the allocator. Raises [Invalid_arg]
    on double-free or unaligned address. *)

(** Raw access. Reads and writes take physical addresses; bounds are
    checked. These are the operations DMA and the CPU model perform — cost
    accounting lives in the bus/cache layers, not here. Any range may span
    frames. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val blit_from_bytes : t -> src:Bytes.t -> src_off:int -> dst:int -> len:int -> unit
val blit_to_bytes : t -> src:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
val fill : t -> addr:int -> len:int -> char -> unit

val bytes_of_region : t -> addr:int -> len:int -> Bytes.t
(** Copy of a region, for assertions. *)

(** In-place reads: these look at the bytes where they lie, block by
    block, and copy nothing. Never-written bytes read as zero. *)

val equal_bytes : t -> addr:int -> len:int -> Bytes.t -> off:int -> bool
(** Does the region hold exactly [len] bytes of the buffer from [off]? *)

val crc32 : t -> int32 -> addr:int -> len:int -> int32
(** Feed the region to {!Osiris_util.Crc32.update}, continuing from the
    given running CRC. *)
