(** Connection matrices: start-time-ordered flow lists drawn from a
    {!Cdf} by an explicit [Rng], ready for an experiment to map onto
    VCs. *)

open Osiris_util
open Osiris_sim

type flow = {
  f_src : int;  (** source host index *)
  f_dst : int;  (** destination host index *)
  f_bytes : int;  (** flow size in bytes, drawn from the CDF *)
  f_start : Time.t;  (** start offset, uniform in the window *)
}

val by_start : flow list -> flow list
(** Stable sort by start time. *)

val total_bytes : flow list -> int

val pair_burst :
  Rng.t -> src:int -> dst:int -> flows:int -> cdf:Cdf.t -> window:Time.t ->
  flow list
(** Many flows between one host pair — the connection-dense demux
    workload, one VC per flow at the receiver. *)
