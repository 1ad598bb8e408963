(** Physical buffers.

    The unit of data exchanged between host driver software and the
    adaptor's on-board processors (paper §2.2): a run of memory locations
    with contiguous {e physical} addresses, described by physical address
    and length. PDUs that are contiguous in virtual memory generally
    decompose into several physical buffers; counting and minimizing them is
    one of the paper's themes. *)

type t = { addr : int; len : int }

val v : addr:int -> len:int -> t
(** Construct; [len] must be positive and [addr] non-negative. *)

val total_len : t list -> int
(** Sum of lengths of a buffer list (the PDU size it carries). *)

val coalesce : t list -> t list
(** Merge physically adjacent buffers ([a.addr + a.len = b.addr]) in a list,
    preserving order. This is what a driver does to minimize descriptor
    count when luck (or a contiguous allocator) gives adjacent frames. *)
