(** Multipath sweep: the reliable transport sprayed across a generated
    fat-tree's equal-cost paths.

    An 8-pod fat-tree (32 hosts, 80 switches, 16 equal-cost inter-pod
    paths) carries a full permutation and an inter-pod incast under
    three path-selection policies — pinned single path, static-hash
    ECMP (one hash-chosen path per connection) and REPS adaptive
    spraying ({!Osiris_lb.Reps}) — plus a failure run that cuts one
    aggregation-to-core trunk mid-transfer and measures how fast the
    spray abandons it. Every run audits the whole fabric
    ({!Osiris_core.Network.audit}: cells and marks on {e every} switch,
    every link's cell disposition, every host at quiescence),
    byte-exact delivery on every stream, and the transport/balancer
    invariants. *)

type workload =
  | Permutation
  | Incast of int  (** that many senders into host 0 *)
  | Single_flow
      (** one saturated inter-pod flow — the reroute-latency probe *)

type outcome = {
  mode : Osiris_lb.Spray.mode;
  workload : workload;
  nconns : int;
  offered_bytes : int;
  delivered_bytes : int;
  byte_exact : bool;
  finished : int;
  failed : int;
  completion : Osiris_sim.Time.t option;
      (** last Finished instant; [None] if any stream didn't finish *)
  fct_p99 : Osiris_sim.Time.t;  (** 99th-percentile flow completion *)
  goodput_mbps : float;
  retransmits : int;
  timeouts : int;
  recycled_picks : int;  (** REPS picks served from recycled entropy *)
  switch_dropped : int;  (** summed over every switch in the fabric *)
  reroute : Osiris_sim.Time.t option;
      (** failure runs: the latest hand-off to a path crossing the dead
          trunk, counted from the cut instant *)
  violations : string list;
}

val figure : unit -> Report.figure
(** The BENCH figure: goodput and p99 FCT per policy under both
    workloads (64 KB per flow), plus the trunk-cut reroute latency and goodput retention.
    Raises [Failure] if any run breaks an invariant or misses a bar:
    every stream byte-exact and finished, REPS p99 strictly better than
    static-hash ECMP on the permutation, reroute within 100 us, and at
    least 90% of failure-free goodput under
    the cut. *)
