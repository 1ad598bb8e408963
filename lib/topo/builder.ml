type port_ref = { pr_sw : int; pr_port : int }
type trunk = { t_a : port_ref; t_b : port_ref }

type fabric = {
  switch_nports : int array;
  switch_names : string array;
  hosts : port_ref array;
  trunks : trunk array;
}

type hop = { h_sw : int; h_in : int; h_out : int }

let nswitches f = Array.length f.switch_nports
let nhosts f = Array.length f.hosts

(* ------------------------------------------------------------------ *)
(* Expansion. The element ORDER of [trunks] and [hosts] is part of the
   contract: instantiation creates links and attaches ports in exactly
   this order, so a given spec always draws the same RNG stream and the
   degenerate families reproduce the historical star/chain wiring
   bit for bit. *)

let build_star hosts =
  {
    switch_nports = [| hosts |];
    switch_names = [| "sw0" |];
    hosts = Array.init hosts (fun i -> { pr_sw = 0; pr_port = i });
    trunks = [||];
  }

let build_chain hosts =
  let h0 = (hosts + 1) / 2 in
  let h1 = hosts - h0 in
  {
    switch_nports = [| h0 + 1; h1 + 1 |];
    switch_names = [| "sw0"; "sw1" |];
    hosts =
      Array.init hosts (fun i ->
          if i < h0 then { pr_sw = 0; pr_port = i }
          else { pr_sw = 1; pr_port = i - h0 });
    trunks =
      [|
        {
          t_a = { pr_sw = 0; pr_port = h0 };
          t_b = { pr_sw = 1; pr_port = h1 };
        };
      |];
  }

(* k-ary fat-tree, switches indexed edges first (pod-major), then
   aggregations (pod-major), then cores (group-major): edge(p,e) uses
   ports [0, hosts_per_edge) for hosts and [hosts_per_edge + a] for
   agg(p,a); agg(p,a) uses port [e] down to edge(p,e) and [k/2 + j] up
   to core(a,j); core(a,j) uses port [p] down to pod [p]'s agg #a. An
   inter-pod path therefore picks one (a, j) pair: (k/2)^2 equal-cost
   routes. *)
let build_fat_tree k hosts_per_edge =
  let h = k / 2 in
  let nedge = k * h in
  let nagg = k * h in
  let ncore = h * h in
  let edge p e = (p * h) + e in
  let agg p a = nedge + (p * h) + a in
  let core a j = nedge + nagg + (a * h) + j in
  let nsw = nedge + nagg + ncore in
  let switch_nports =
    Array.init nsw (fun s ->
        if s < nedge then hosts_per_edge + h else if s < nedge + nagg then k
        else k)
  in
  let switch_names =
    Array.init nsw (fun s ->
        if s < nedge then Printf.sprintf "edge%d.%d" (s / h) (s mod h)
        else if s < nedge + nagg then
          Printf.sprintf "agg%d.%d" ((s - nedge) / h) ((s - nedge) mod h)
        else
          Printf.sprintf "core%d.%d"
            ((s - nedge - nagg) / h)
            ((s - nedge - nagg) mod h))
  in
  let hosts =
    Array.init (nedge * hosts_per_edge) (fun i ->
        { pr_sw = i / hosts_per_edge; pr_port = i mod hosts_per_edge })
  in
  (* Edge-to-agg trunks (pod-major, edge-major), then agg-to-core
     (pod-major, agg-major). *)
  let edge_agg =
    Array.init (k * h * h) (fun i ->
        let p = i / (h * h) in
        let e = i mod (h * h) / h in
        let a = i mod h in
        {
          t_a = { pr_sw = edge p e; pr_port = hosts_per_edge + a };
          t_b = { pr_sw = agg p a; pr_port = e };
        })
  in
  let agg_core =
    Array.init (k * h * h) (fun i ->
        let p = i / (h * h) in
        let a = i mod (h * h) / h in
        let j = i mod h in
        {
          t_a = { pr_sw = agg p a; pr_port = h + j };
          t_b = { pr_sw = core a j; pr_port = p };
        })
  in
  {
    switch_nports;
    switch_names;
    hosts;
    trunks = Array.append edge_agg agg_core;
  }

let build spec =
  Spec.validate spec;
  match spec with
  | Spec.Star { hosts } -> build_star hosts
  | Spec.Chain { hosts } -> build_chain hosts
  | Spec.Fat_tree { k; hosts_per_edge } -> build_fat_tree k hosts_per_edge

(* ------------------------------------------------------------------ *)
(* Shortest-path enumeration over the switch graph. Fabrics are a few
   hundred switches at most, so a per-query BFS + DFS is cheap; path
   order is deterministic (adjacency lists follow trunk index order). *)

(* (peer switch, my egress port, peer ingress port) per switch. *)
let adjacency f =
  let adj = Array.make (nswitches f) [] in
  Array.iter
    (fun t ->
      adj.(t.t_a.pr_sw) <-
        (t.t_b.pr_sw, t.t_a.pr_port, t.t_b.pr_port) :: adj.(t.t_a.pr_sw);
      adj.(t.t_b.pr_sw) <-
        (t.t_a.pr_sw, t.t_b.pr_port, t.t_a.pr_port) :: adj.(t.t_b.pr_sw))
    f.trunks;
  Array.map List.rev adj

let paths f ~src ~dst =
  let nh = nhosts f in
  if src < 0 || src >= nh || dst < 0 || dst >= nh || src = dst then
    invalid_arg "Topo.Builder.paths: bad endpoints";
  let s = f.hosts.(src) and d = f.hosts.(dst) in
  if s.pr_sw = d.pr_sw then
    [ [ { h_sw = s.pr_sw; h_in = s.pr_port; h_out = d.pr_port } ] ]
  else begin
    let adj = adjacency f in
    (* BFS from the destination switch: dist.(sw) = hops to [d.pr_sw]. *)
    let dist = Array.make (nswitches f) max_int in
    dist.(d.pr_sw) <- 0;
    let queue = Queue.create () in
    Queue.add d.pr_sw queue;
    while not (Queue.is_empty queue) do
      let sw = Queue.take queue in
      List.iter
        (fun (peer, _, _) ->
          if dist.(peer) = max_int then begin
            dist.(peer) <- dist.(sw) + 1;
            Queue.add peer queue
          end)
        adj.(sw)
    done;
    if dist.(s.pr_sw) = max_int then []
    else begin
      (* DFS along strictly distance-decreasing trunks enumerates every
         shortest path exactly once. *)
      let acc = ref [] in
      let rec go sw in_port rev_hops =
        if sw = d.pr_sw then
          acc :=
            List.rev
              ({ h_sw = sw; h_in = in_port; h_out = d.pr_port } :: rev_hops)
            :: !acc
        else
          List.iter
            (fun (peer, out, peer_in) ->
              if dist.(peer) = dist.(sw) - 1 then
                go peer peer_in
                  ({ h_sw = sw; h_in = in_port; h_out = out } :: rev_hops))
            adj.(sw)
      in
      go s.pr_sw s.pr_port [];
      List.rev !acc
    end
  end

let path_uses_trunk f path trunk =
  if trunk < 0 || trunk >= Array.length f.trunks then
    invalid_arg "Topo.Builder.path_uses_trunk: trunk out of range";
  let t = f.trunks.(trunk) in
  List.exists
    (fun h ->
      (h.h_sw = t.t_a.pr_sw && h.h_out = t.t_a.pr_port)
      || (h.h_sw = t.t_b.pr_sw && h.h_out = t.t_b.pr_port))
    path
