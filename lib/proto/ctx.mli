(** Execution context for host protocol code.

    Protocol layers run on the host CPU and touch network data through the
    host's data cache; this record bundles the two together with the
    machine's calibrated per-operation software costs, so each layer can
    charge what the paper says it costs (e.g. the 200 µs UDP/IP service
    time on the DECstation, split across the layers). *)

type costs = {
  ip_output_per_fragment : Osiris_sim.Time.t;
  ip_input_per_fragment : Osiris_sim.Time.t;
  udp_output : Osiris_sim.Time.t;
  udp_input : Osiris_sim.Time.t;
  checksum_cycles_per_word : int;
      (** CPU arithmetic per 32-bit word of checksummed data, on top of the
          cache-modelled load costs *)
}

type t = {
  cpu : Osiris_os.Cpu.t;
  cache : Osiris_cache.Data_cache.t;
  costs : costs;
  mutable sum_buf : Bytes.t;
      (** {!checksum_msg}'s read buffer, grown to the longest range
          summed; no other code touches it *)
}

val create :
  cpu:Osiris_os.Cpu.t -> cache:Osiris_cache.Data_cache.t -> costs -> t

val read_through_cache : t -> Osiris_xkernel.Msg.t -> off:int -> len:int -> Bytes.t
(** Read part of a message the way the CPU actually would: through the data
    cache, holding the CPU, paying fill costs (and possibly observing stale
    bytes). *)

val checksum_msg : t -> Osiris_xkernel.Msg.t -> off:int -> len:int -> int
(** One's-complement sum of a message range, read through the cache and
    charged per word. This is where stale cache data gets caught — or
    not. The bytes go through [sum_buf], not a fresh copy. *)

val invalidate_msg : t -> Osiris_xkernel.Msg.t -> off:int -> len:int -> unit
(** Explicitly invalidate the cache lines behind a message range (one CPU
    cycle per word, §2.3). *)
