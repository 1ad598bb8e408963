(** Multipath sweep: the reliable transport sprayed across a generated
    fat-tree's equal-cost paths.

    An 8-pod fat-tree (32 hosts, 80 switches, 16 equal-cost inter-pod
    paths) carries a full permutation and an inter-pod incast under
    three path-selection policies — pinned single path, static-hash
    ECMP (one hash-chosen path per connection) and REPS adaptive
    spraying ({!Osiris_lb.Reps}) — plus a failure run that cuts one
    aggregation-to-core trunk mid-transfer and measures how fast the
    spray abandons it. Every run goes through {!Flows}: it audits the
    whole fabric ({!Osiris_core.Network.audit}: cells and marks on
    {e every} switch, every link's cell disposition, every host at
    quiescence), byte-exact delivery on every stream, and the
    transport/balancer invariants. *)

val figure : unit -> Report.figure
(** The BENCH figure: goodput and p99 FCT per policy under both
    workloads (64 KB per flow), plus the trunk-cut reroute latency and goodput retention.
    Raises [Failure] if any run breaks an invariant or misses a bar:
    every stream byte-exact and finished, REPS p99 strictly better than
    static-hash ECMP on the permutation, reroute within 100 us, and at
    least 90% of failure-free goodput under
    the cut. *)
