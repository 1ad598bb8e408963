type t =
  | Star of { hosts : int }
  | Chain of { hosts : int }
  | Fat_tree of { k : int; hosts_per_edge : int }

let validate = function
  | Star { hosts } ->
      if hosts < 2 then invalid_arg "Topo.Spec: star needs at least 2 hosts"
  | Chain { hosts } ->
      if hosts < 2 then invalid_arg "Topo.Spec: chain needs at least 2 hosts"
  | Fat_tree { k; hosts_per_edge } ->
      if k < 2 || k mod 2 <> 0 then
        invalid_arg "Topo.Spec: fat-tree radix must be even and >= 2";
      if hosts_per_edge < 1 || hosts_per_edge > k / 2 then
        invalid_arg "Topo.Spec: fat-tree hosts_per_edge out of [1, k/2]"
