(** Powers of two: the sizes that split an address with shifts and
    masks. *)

val is_pow2 : int -> bool
(** [n] is a positive power of two. *)

val log2 : int -> int
(** [log2 n] is the [k] with [1 lsl k = n], for [n] a power of two. *)
