(** Fabric wiring plans: a {!Spec.t} expanded into concrete switches,
    host attachment points and inter-switch trunks, plus equal-cost
    shortest-path enumeration over the result.

    A plan is still pure data — switch indices, port numbers and trunk
    endpoint pairs — with no engine, link or switch objects behind it.
    [Osiris_core.Network] turns a plan into a running fabric;
    experiments query the plan (the "fabric map") for path sets and
    trunk membership.

    The array {e order} of [hosts] and [trunks] is part of the contract:
    instantiation creates links and attaches ports in exactly this
    order, so equal specs yield byte-identical fabrics (same RNG draws,
    same port wiring) and the [Star]/[Chain] plans reproduce the
    historical hand-rolled constructors exactly. *)

type port_ref = { pr_sw : int; pr_port : int }

type trunk = { t_a : port_ref; t_b : port_ref }
(** One bidirectional inter-switch trunk. Instantiation creates the
    [t_a → t_b] link before the [t_b → t_a] link and attaches the
    [t_a]-side port first. *)

type fabric = {
  switch_nports : int array;  (** ports per switch, indexed by switch *)
  switch_names : string array;
  hosts : port_ref array;  (** host [i] attaches at [hosts.(i)] *)
  trunks : trunk array;
}

type hop = { h_sw : int; h_in : int; h_out : int }
(** One switch traversal: cells enter switch [h_sw] on port [h_in] and
    leave on port [h_out]. A path is the hop list from the source host's
    edge switch to the destination's. *)

val build : Spec.t -> fabric
(** Validates the spec and expands it. Every switch port is used by
    exactly one occupant (host or trunk endpoint) — the wiring is a
    bijection, which the qcheck suite pins. *)

val nswitches : fabric -> int
val nhosts : fabric -> int

val paths : fabric -> src:int -> dst:int -> hop list list
(** Every shortest path between two distinct hosts, in deterministic
    (trunk-index DFS) order. All returned paths have equal hop counts;
    for a fat-tree's inter-pod pairs there are [(k/2)^2] of them. Raises
    [Invalid_argument] if [src = dst] or either is out of range. *)

val path_uses_trunk : fabric -> hop list -> int -> bool
(** Does the path traverse trunk [trunk] (in either direction)? *)
