(** Host topologies: the paper's back-to-back pair, and multi-host
    fabrics built from {!Osiris_switch.Switch} via the
    {!Osiris_topo} generator.

    The original testbed is §4's "pair of workstations connected by a
    pair of OSIRIS boards linked back-to-back" — {!connect}/{!pair},
    unchanged. Every multi-host fabric is an {!Osiris_topo.Builder}
    wiring plan stood up on one engine: every host keeps its own
    transmit and receive striped links, but they terminate on switch
    ports instead of directly on the peer, and {!open_vc} allocates
    per-hop VCIs and programs the switches' routing tables end to end.
    {!star} and {!chain} are the degenerate plans (bit-for-bit the
    fabrics their hand-rolled predecessors built); {!fat_tree} scales
    the same machinery to a multi-tier Clos fabric with equal-cost
    multipath, which {!open_vc_paths} exposes as one VCI chain per
    path. *)

type t = {
  a : Host.t;
  b : Host.t;
  a_to_b : Osiris_link.Atm_link.t;
  b_to_a : Osiris_link.Atm_link.t;
}

val connect :
  Osiris_sim.Engine.t ->
  ?link:Osiris_link.Atm_link.config ->
  ?seed:int ->
  Host.t ->
  Host.t ->
  t
(** Create the two unidirectional striped links, attach the boards, and
    start both hosts. *)

val pair :
  ?machine_a:Machine.t ->
  ?machine_b:Machine.t ->
  ?config:Host.config ->
  unit ->
  Osiris_sim.Engine.t * t
(** Convenience: a fresh engine and two identical hosts (DECstation
    5000/200 by default) already connected and started. *)

(** {2 Multi-host topologies} *)

type endpoint = {
  host : Host.t;
  to_fabric : Osiris_link.Atm_link.t;  (** host tx → switch ingress *)
  from_fabric : Osiris_link.Atm_link.t;  (** switch egress → host rx *)
  sw : int;  (** index into {!topology.switches} *)
  port : int;  (** this host's port on that switch *)
}

type topology = {
  endpoints : endpoint array;
  switches : Osiris_switch.Switch.t array;
  trunks : Osiris_link.Atm_link.t array;
      (** the trunk links, two per {!Osiris_topo.Builder.trunk} in trunk
          order: [trunks.(2i)] carries trunk [i]'s [t_a → t_b] direction
          and [trunks.(2i+1)] the reverse ([\[| sw0->sw1; sw1->sw0 |\]]
          for {!chain}, empty for {!star}) — the targets of [trunkloss]
          and [trunkdown] faults ([Injector.inject_topology]) *)
  fabric : Osiris_topo.Builder.fabric;
      (** the wiring plan this topology was instantiated from — the
          queryable fabric map (trunk endpoints, path sets) *)
  mutable next_vci : int;  (** next VCI {!open_vc} will hand out *)
  path_cache : (int, Osiris_topo.Builder.hop list list) Hashtbl.t;
      (** memoized {!Osiris_topo.Builder.paths} results, keyed
          [(src lsl 16) lor dst]: the fabric never changes once it
          is stood up, so each ordered pair is enumerated at most
          once and opening the Nth VC of a pair is O(path length) —
          bulk connection setup at thousands of VCs *)
  mutable path_enums : int;
      (** number of path enumerations actually performed (cache
          misses); see {!path_enumerations} *)
}

type vc = {
  vc_src : int;  (** sending host index *)
  src_vci : int;  (** VCI the sender transmits on ([Driver.send ~vci]) *)
  dst_vci : int;
      (** VCI the cells carry on the receiver's link after per-hop
          rewriting — already bound to the receiver's kernel channel *)
}

type mvc = {
  mv_src : int;
  mv_dst : int;
  src_vcis : int array;  (** per-path sender VCIs: sending on
      [src_vcis.(p)] routes the PDU along path [p] *)
  dst_vcis : int array;
      (** per-path receiver VCIs, each bound to the kernel channel —
          which VCI fired tells the receiver which path a PDU took *)
  mv_paths : Osiris_topo.Builder.hop list array;
      (** the equal-cost hop lists, aligned with the VCI arrays *)
}
(** A multipath virtual circuit: one complete per-hop VCI chain per
    equal-cost path, so a sender-side load balancer picks a path per PDU
    by picking a VCI — cells of one PDU never interleave with another
    path's cells on the same VCI, keeping striped reassembly sound. *)

val star :
  ?n:int ->
  ?machine:Machine.t ->
  ?config:Host.config ->
  ?link:Osiris_link.Atm_link.config ->
  ?switch:Osiris_switch.Switch.config ->
  ?seed:int ->
  unit ->
  Osiris_sim.Engine.t * topology
(** [n] hosts (default 3, minimum 2) on the [n] ports of one switch —
    the plan of [Spec.Star]. *)

val chain :
  ?n:int ->
  ?switch:Osiris_switch.Switch.config ->
  unit ->
  Osiris_sim.Engine.t * topology
(** [n] hosts (default 4) split across two switches joined by a striped
    trunk link per direction: the first [ceil(n/2)] hosts sit on switch
    0, the rest on switch 1, and each switch's last port is the trunk. *)

val fat_tree :
  ?k:int ->
  ?hosts_per_edge:int ->
  ?machine:Machine.t ->
  ?config:Host.config ->
  ?switch:Osiris_switch.Switch.config ->
  ?seed:int ->
  unit ->
  Osiris_sim.Engine.t * topology
(** k-ary fat-tree (default k=4 with one host per edge switch):
    [(k/2)^2] equal-cost paths between hosts in different pods. An
    8-pod tree ([k]=8) with one host per edge stands up 32 hosts and 80
    switches. *)

val host : topology -> int -> Host.t
val nhosts : topology -> int

val fabric : topology -> Osiris_topo.Builder.fabric
(** The wiring plan — path sets via {!Osiris_topo.Builder.paths}, trunk
    endpoints. *)

val open_vc : topology -> src:int -> dst:int -> vc
(** Allocate a fresh virtual circuit from host [src] to host [dst] along
    the {e first} shortest path: fresh VCIs for every hop (starting at
    32, clear of the kernel IP VCI and hand-bound test VCIs),
    routing-table entries with VCI rewriting on each traversed switch,
    and a receive binding of the final VCI to [dst]'s kernel channel.
    The caller sends with [Driver.send ~vci:vc.src_vci] and receives by
    binding [vc.dst_vci] in [dst]'s demux. *)

val path_enumerations : topology -> int
(** How many times the topology has run shortest-path enumeration
    ([Builder.paths]) — at most one per ordered (src, dst) pair, however
    many VCs are opened. The bulk-setup regression test pins this. *)

val open_vc_paths : topology -> src:int -> dst:int -> mvc
(** Allocate one complete VCI chain per equal-cost shortest path (in
    {!Osiris_topo.Builder.paths} order), binding every receiver-side VCI
    to [dst]'s kernel channel. Raises [Invalid_argument] on bad
    endpoints. *)

(** {2 The fabric audit} *)

val audit : topology -> string list
(** Every conservation law of the fabric, as violation sentences
    (empty = clean): each switch's cell and mark conservation and its
    routing and packet-discard tables' structure
    ({!Osiris_switch.Switch.route_check}) ([switch i ...], in
    {!topology.switches} order), each link's cell disposition law —
    every offered cell delivered or dropped, so a cell still on the
    wire reads as leaked — ([link i ...]: the hosts' [to_fabric] links,
    then their [from_fabric] links, then {!topology.trunks}), and
    {!Invariants.check} [~quiescent:true] and the VC table's structure
    ({!Osiris_board.Board.demux_check}) on every host ([host i: ...],
    in endpoint order). Meaningful once traffic has stopped and
    recovery timers have swept. Connection invariants are the caller's
    to add. *)

val audit_pair : t -> string list
(** {!audit} for the back-to-back pair: [link 0] is [a_to_b], [link 1]
    [b_to_a], then both hosts' invariants and VC tables. *)
