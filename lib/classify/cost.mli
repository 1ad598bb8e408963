(** Cycle-cost model for classification lookups: probes × the machine's
    memory-access cost. Profiles are derived from a machine's cache
    parameters by the experiments (this library sits below
    [Osiris_core]). *)

type profile

val of_cache : cpu_hz:int -> fill_overhead_cycles:int -> profile
(** One probe = one cache-line fill and a one-cycle word read:
    [(fill_overhead_cycles + 1) / cpu_hz], in nanoseconds. *)

val lookup_ns : profile -> probes:float -> float
(** Modeled lookup cost of [probes] (possibly an average) probes. *)
