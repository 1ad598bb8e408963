(** The Internet (RFC 1071) 16-bit one's-complement checksum.

    Used by the simulated IP header checksum and the optional UDP data
    checksum. The lazy-cache-invalidation experiment (paper §2.3) depends on
    this catching stale cached data, which it does for any single corrupted
    region that does not happen to preserve the one's-complement sum. *)

val ones_complement_sum : Bytes.t -> off:int -> len:int -> int
(** Running 16-bit one's-complement sum of the region; odd trailing byte is
    padded with zero as per RFC 1071. The result is in [\[0, 0xffff\]]. *)

val finish : int -> int
(** One's-complement of a running sum: the value to place in a checksum
    field. *)

val compute : Bytes.t -> off:int -> len:int -> int
(** [finish (ones_complement_sum b ~off ~len)]. *)

val verify : Bytes.t -> off:int -> len:int -> bool
(** True when a region that includes its checksum field sums to [0xffff]. *)
