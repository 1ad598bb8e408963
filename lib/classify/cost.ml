(* Per-machine-profile cost of a classification lookup.

   The table is far bigger than a 1990s L1 line budget, so the honest
   model charges every probe as one cache-line fill: the line-fill
   overhead plus one word read, at the machine's clock. The profiles are
   built by the experiments from [Machine.t] cache configs — this
   library stays below [Osiris_core] in the dependency order. *)

(* A profile is the cost of one probe, in nanoseconds. *)
type profile = float

(* The line fill, then the one-cycle word read of §2.3. *)
let of_cache ~cpu_hz ~fill_overhead_cycles =
  if cpu_hz <= 0 then invalid_arg "Classify.Cost.of_cache: cpu_hz <= 0";
  let cycles = float_of_int (fill_overhead_cycles + 1) in
  cycles *. 1e9 /. float_of_int cpu_hz

let lookup_ns access_ns ~probes = probes *. access_ns
