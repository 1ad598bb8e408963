module Atm_link = Osiris_link.Atm_link
module Board = Osiris_board.Board
module Rng = Osiris_util.Rng
module Switch = Osiris_switch.Switch
module Spec = Osiris_topo.Spec
module Builder = Osiris_topo.Builder

type t = {
  a : Host.t;
  b : Host.t;
  a_to_b : Atm_link.t;
  b_to_a : Atm_link.t;
}

let connect eng ?(link = Atm_link.default_config) ?(seed = 7) (a : Host.t) (b : Host.t) =
  let rng = Rng.create ~seed in
  let a_to_b = Atm_link.create eng (Rng.split rng) link in
  let b_to_a = Atm_link.create eng (Rng.split rng) link in
  Board.attach a.Host.board ~tx_link:a_to_b ~rx_link:b_to_a;
  Board.attach b.Host.board ~tx_link:b_to_a ~rx_link:a_to_b;
  Host.start a;
  Host.start b;
  { a; b; a_to_b; b_to_a }

let pair ?(machine_a = Machine.ds5000_200) ?(machine_b = Machine.ds5000_200)
    ?(config = Host.default_config) () =
  let eng = Osiris_sim.Engine.create () in
  let a = Host.create eng machine_a ~addr:0x0a000001l config in
  let b =
    Host.create eng machine_b ~addr:0x0a000002l
      { config with seed = config.seed + 1 }
  in
  let net = connect eng a b in
  (eng, net)

(* ------------------------------------------------------------------ *)
(* Multi-host topologies through the cell-switch fabric.               *)
(* ------------------------------------------------------------------ *)

type endpoint = {
  host : Host.t;
  to_fabric : Atm_link.t;
  from_fabric : Atm_link.t;
  sw : int;
  port : int;
}

type topology = {
  endpoints : endpoint array;
  switches : Switch.t array;
  trunks : Atm_link.t array;
  fabric : Builder.fabric;
  mutable next_vci : int;
  path_cache : (int, Builder.hop list list) Hashtbl.t;
      (* (src lsl 16) lor dst → Builder.paths result. The fabric is
         immutable after instantiate, so shortest-path enumeration is a
         pure function of the pair; caching it makes opening the Nth VC
         of a pair O(path length), which is what lets experiments stand
         up thousands of connections. *)
  mutable path_enums : int; (* Builder.paths calls actually made *)
}

type vc = { vc_src : int; src_vci : int; dst_vci : int }

type mvc = {
  mv_src : int;
  mv_dst : int;
  src_vcis : int array;
  dst_vcis : int array;
  mv_paths : Builder.hop list array;
}

(* First VCI handed out by [open_vc]: clear of the kernel IP VCI (5) and
   of the small raw VCIs the test suites bind by hand. *)
let first_user_vci = 32

let host topo i = topo.endpoints.(i).host
let nhosts topo = Array.length topo.endpoints
let fabric topo = topo.fabric

let fresh_vci topo =
  let v = topo.next_vci in
  if v > 0xffff then invalid_arg "Network.open_vc: VCI space exhausted";
  topo.next_vci <- v + 1;
  v

(* Build one host and wire it to [port] of [sw_idx]/[sw]: the host's tx
   link is the switch port's ingress and vice versa. *)
let make_endpoint eng machine config link rng sw sw_idx ~port ~index =
  let host =
    Host.create eng machine
      ~addr:(Int32.of_int (0x0a000001 + index))
      { config with Host.seed = config.Host.seed + index }
  in
  let to_fabric = Atm_link.create eng (Rng.split rng) link in
  let from_fabric = Atm_link.create eng (Rng.split rng) link in
  Board.attach host.Host.board ~tx_link:to_fabric ~rx_link:from_fabric;
  Switch.attach_port sw ~port ~ingress:to_fabric ~egress:from_fabric;
  Host.start host;
  { host; to_fabric; from_fabric; sw = sw_idx; port }

(* Stand a wiring plan up: engine, switches (in index order), hosts (in
   index order, two RNG splits each), trunk link pairs (in trunk order,
   a->b before b->a), then start every switch. The order is load-bearing:
   it reproduces the RNG stream and creation sequence of the historical
   hand-rolled star/chain constructors exactly. *)
let instantiate ~machine ~config ~link ~switch ~seed fabric =
  let eng = Osiris_sim.Engine.create () in
  let switches =
    Array.init (Builder.nswitches fabric) (fun s ->
        Switch.create eng
          ~name:fabric.Builder.switch_names.(s)
          { switch with Switch.nports = fabric.Builder.switch_nports.(s) })
  in
  let rng = Rng.create ~seed in
  let endpoints =
    Array.init (Builder.nhosts fabric) (fun i ->
        let p = fabric.Builder.hosts.(i) in
        make_endpoint eng machine config link rng
          switches.(p.Builder.pr_sw)
          p.Builder.pr_sw ~port:p.Builder.pr_port ~index:i)
  in
  let trunks =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (t : Builder.trunk) ->
              let a = t.Builder.t_a and b = t.Builder.t_b in
              let l_ab = Atm_link.create eng (Rng.split rng) link in
              let l_ba = Atm_link.create eng (Rng.split rng) link in
              Switch.attach_port switches.(a.Builder.pr_sw)
                ~port:a.Builder.pr_port ~ingress:l_ba ~egress:l_ab;
              Switch.attach_port switches.(b.Builder.pr_sw)
                ~port:b.Builder.pr_port ~ingress:l_ab ~egress:l_ba;
              [| l_ab; l_ba |])
            fabric.Builder.trunks))
  in
  Array.iter Switch.start switches;
  ( eng,
    {
      endpoints;
      switches;
      trunks;
      fabric;
      next_vci = first_user_vci;
      path_cache = Hashtbl.create 64;
      path_enums = 0;
    } )

let star ?(n = 3) ?(machine = Machine.ds5000_200)
    ?(config = Host.default_config) ?(link = Atm_link.default_config)
    ?(switch = Switch.default_config) ?(seed = 7) () =
  if n < 2 then invalid_arg "Network.star: need at least 2 hosts";
  instantiate ~machine ~config ~link ~switch ~seed
    (Builder.build (Spec.Star { hosts = n }))

let chain ?(n = 4) ?(switch = Switch.default_config) () =
  if n < 2 then invalid_arg "Network.chain: need at least 2 hosts";
  instantiate ~machine:Machine.ds5000_200 ~config:Host.default_config
    ~link:Atm_link.default_config ~switch ~seed:7
    (Builder.build (Spec.Chain { hosts = n }))

let fat_tree ?(k = 4) ?(hosts_per_edge = 1)
    ?(machine = Machine.ds5000_200) ?(config = Host.default_config)
    ?(switch = Switch.default_config) ?(seed = 7) () =
  instantiate ~machine ~config ~link:Atm_link.default_config ~switch ~seed
    (Builder.build (Spec.Fat_tree { k; hosts_per_edge }))

(* Program one path's per-hop routes, allocating a fresh VCI per hop;
   returns the final (receiver-side) VCI. *)
let add_path_routes topo path ~src_vci =
  List.fold_left
    (fun in_vci (h : Builder.hop) ->
      let out_vci = fresh_vci topo in
      Switch.add_route topo.switches.(h.Builder.h_sw) ~in_port:h.Builder.h_in
        ~in_vci ~out_port:h.Builder.h_out ~out_vci;
      out_vci)
    src_vci path

let check_endpoints topo ~what ~src ~dst =
  let nh = nhosts topo in
  if src < 0 || src >= nh || dst < 0 || dst >= nh || src = dst then
    invalid_arg (Printf.sprintf "Network.%s: bad endpoints" what)

(* Shortest-path enumeration, memoized per (src, dst): at most one
   [Builder.paths] call per ordered pair for the topology's lifetime. *)
let cached_paths topo ~src ~dst =
  let key = (src lsl 16) lor dst in
  match Hashtbl.find_opt topo.path_cache key with
  | Some paths -> paths
  | None ->
      let paths = Builder.paths topo.fabric ~src ~dst in
      topo.path_enums <- topo.path_enums + 1;
      Hashtbl.replace topo.path_cache key paths;
      paths

let path_enumerations topo = topo.path_enums

let open_vc topo ~src ~dst =
  check_endpoints topo ~what:"open_vc" ~src ~dst;
  match cached_paths topo ~src ~dst with
  | [] -> invalid_arg "Network.open_vc: no path between endpoints"
  | path :: _ ->
      let d = topo.endpoints.(dst) in
      let src_vci = fresh_vci topo in
      let dst_vci = add_path_routes topo path ~src_vci in
      Board.bind_vci d.host.Host.board ~vci:dst_vci
        (Board.kernel_channel d.host.Host.board);
      { vc_src = src; src_vci; dst_vci }

let open_vc_paths topo ~src ~dst =
  check_endpoints topo ~what:"open_vc_paths" ~src ~dst;
  let all = cached_paths topo ~src ~dst in
  if all = [] then invalid_arg "Network.open_vc_paths: no path";
  let d = topo.endpoints.(dst) in
  let mv_paths = Array.of_list all in
  let n = Array.length mv_paths in
  let src_vcis = Array.make n 0 and dst_vcis = Array.make n 0 in
  for p = 0 to n - 1 do
    let src_vci = fresh_vci topo in
    let dst_vci = add_path_routes topo mv_paths.(p) ~src_vci in
    Board.bind_vci d.host.Host.board ~vci:dst_vci
      (Board.kernel_channel d.host.Host.board);
    src_vcis.(p) <- src_vci;
    dst_vcis.(p) <- dst_vci
  done;
  { mv_src = src; mv_dst = dst; src_vcis; dst_vcis; mv_paths }

(* ------------------------------------------------------------------ *)
(* The whole-fabric audit. One lost cell costs a whole PDU (§2.6), so
   a run is only sound if every cell is delivered, dropped or still
   queued somewhere it can be named. *)

let audit_parts ~switches ~links ~hosts =
  let each a g = List.concat (Array.to_list (Array.mapi g a)) in
  each switches (fun i sw ->
      let st = Switch.stats sw in
      Invariants.balance
        ~what:(Printf.sprintf "switch %d cell conservation" i)
        ~total:st.Switch.cells_in ~parts:(Switch.conservation sw)
      @ Invariants.balance
          ~what:(Printf.sprintf "switch %d mark conservation" i)
          ~total:st.Switch.marked ~parts:(Switch.mark_conservation sw)
      @ List.map (Printf.sprintf "switch %d: %s" i) (Switch.route_check sw))
  @ each links (fun i l ->
        Invariants.balance
          ~what:(Printf.sprintf "link %d cell disposition" i)
          ~total:(Atm_link.offered l) ~parts:(Atm_link.conservation l))
  @ each hosts (fun i (h : Host.t) ->
        List.map (Printf.sprintf "host %d: %s" i)
          (Invariants.check ~quiescent:true ~board:h.Host.board
             ~driver:h.Host.driver ()
          @ Board.demux_check h.Host.board))

let audit topo =
  let ends = topo.endpoints in
  audit_parts ~switches:topo.switches
    ~links:
      (Array.concat
         [
           Array.map (fun e -> e.to_fabric) ends;
           Array.map (fun e -> e.from_fabric) ends;
           topo.trunks;
         ])
    ~hosts:(Array.map (fun e -> e.host) ends)

let audit_pair n =
  audit_parts ~switches:[||] ~links:[| n.a_to_b; n.b_to_a |]
    ~hosts:[| n.a; n.b |]
