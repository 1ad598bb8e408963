(** CRC-32 (IEEE 802.3 polynomial), as used by the AAL5 trailer.

    The simulated adaptor appends and checks this CRC over each reassembled
    PDU, which is what detects cells corrupted by link errors and — together
    with the UDP checksum — stale data revealed by lazy cache
    invalidation. *)

val compute : Bytes.t -> off:int -> len:int -> int32
(** CRC-32 of the region, standard init [0xffffffff] and final inversion. *)

val update : int32 -> Bytes.t -> off:int -> len:int -> int32
(** Incremental form: feed successive regions to [update] starting from
    {!init}, then {!finalize}. *)

val update_zeros : int32 -> len:int -> int32
(** [update crc] over [len] zero bytes, without a buffer. *)

val init : int32
val finalize : int32 -> int32
