(** Parameterized fabric specifications.

    A spec is pure data naming a topology family and its dimensions; it
    knows nothing about engines, links or switches. {!Builder.build}
    expands a spec into a concrete wiring plan, and [Osiris_core.Network]
    stands the plan up as real hosts, links and switches.

    [Star] and [Chain] are the degenerate fabrics the repo grew up with
    (one switch; two switches and a trunk) and expand to exactly the
    wiring the historical hand-rolled constructors produced. [Fat_tree]
    is the k-ary three-tier Clos of Al-Fares et al.: [k] pods of [k/2]
    edge and [k/2] aggregation switches, [(k/2)^2] cores,
    [hosts_per_edge] hosts per edge switch (the canonical tree has
    [k/2]; fewer underpopulates the pods), and [(k/2)^2] equal-cost
    paths between hosts in different pods. *)

type t =
  | Star of { hosts : int }
  | Chain of { hosts : int }
  | Fat_tree of { k : int; hosts_per_edge : int }

val validate : t -> unit
(** Raises [Invalid_argument] on dimensions outside the family's domain
    (fewer than 2 hosts, odd fat-tree radix, [hosts_per_edge] outside
    [1, k/2]). *)
