open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Switch = Osiris_switch.Switch
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Ctable = Osiris_classify.Table
module Cost = Osiris_classify.Cost
module Cdf = Osiris_traffic.Cdf
module Matrix = Osiris_traffic.Matrix
module Rng = Osiris_util.Rng
module Data_cache = Osiris_cache.Data_cache

(* Connection-dense demultiplexing: one receiver terminates thousands of
   VCs at once and every arriving cell must be classified to its VC
   state before a byte can move. The sweep opens [nvcs] VCs between one
   host pair, drives one short flow per VC (sizes from a scaled
   web-search CDF), and reads the classification tables' probe counters
   back out. Probe counts are machine-independent; the cost model turns
   them into nanoseconds per cell for both paper machines. The linear
   baseline is the pre-hashing strawman: an association list scanned
   front to back, whose expected cost grows with the table. *)

type point = {
  nvcs : int;
  delivered_pdus : int;
  demux : Ctable.probe_stats;
  route : Ctable.probe_stats;
  nroutes : int;
  resident_bytes_per_vc : int;
  violations : string list;
}

let avg_probes (s : Ctable.probe_stats) =
  if s.Ctable.lookups = 0 then 0.
  else float_of_int s.Ctable.probes /. float_of_int s.Ctable.lookups

(* Modeled per-cell classification cost on [profile]: the board's VC
   demux plus the switch's routing lookup, each charged per probe. *)
let hashed_ns profile p =
  Cost.lookup_ns profile ~probes:(avg_probes p.demux +. avg_probes p.route)

(* Linear-scan baseline: an unsorted list probes (n+1)/2 entries on
   average for a uniformly used table of n live keys. *)
let linear_ns profile p =
  let scan n = (float_of_int n +. 1.) /. 2. in
  Cost.lookup_ns profile
    ~probes:(scan p.nvcs +. scan p.nroutes)

let profile_of machine =
  let c = machine.Machine.cache in
  Cost.of_cache ~cpu_hz:c.Data_cache.cpu_hz
    ~fill_overhead_cycles:c.Data_cache.fill_overhead_cycles

let run ~nvcs () =
  let seed = 11 in
  (* A host terminating thousands of connections provisions receive
     buffers for the burst depth the connection count implies; the stock
     63-buffer pool is sized for the paper's few-VC benchmarks. *)
  let machine = { Machine.ds5000_200 with Machine.rx_pool_buffers = 255 } in
  (* The descriptor queues must be deepened to match: the driver caps
     circulating buffers at [queue_size - 1]. *)
  let board = { Board.default_config with Board.queue_size = 256 } in
  let cfg = { Host.default_config with Host.board; seed = 7000 + seed } in
  let switch = { Switch.default_config with Switch.queue_cells = 512 } in
  let eng, topo =
    Network.star ~n:2 ~machine ~config:cfg ~switch ~seed:(300 + seed) ()
  in
  let recv = Network.host topo 0 and sender = Network.host topo 1 in
  (* Bulk VC setup: every (1 -> 0) circuit after the first must come out
     of the topology's path cache, so opening thousands stays O(1)
     amortized. *)
  let vcs = Array.init nvcs (fun _ -> Network.open_vc topo ~src:1 ~dst:0) in
  let path_enums = Network.path_enumerations topo in
  let delivered = ref 0 and delivered_bytes = ref 0 in
  Array.iter
    (fun vc ->
      Demux.bind recv.Host.demux ~vci:vc.Network.dst_vci ~name:"demux-sink"
        (fun ~vci:_ m ->
          incr delivered;
          delivered_bytes := !delivered_bytes + Msg.length m;
          Msg.dispose m))
    vcs;
  (* One flow per VC, sizes from a web-search CDF shrunk to single-PDU
     scale, starts spread across a window wide enough that the single
     155 Mb/s access link never saturates. *)
  let rng = Rng.create ~seed:(900 + seed + nvcs) in
  let cdf =
    Cdf.scale Cdf.websearch ~factor:1e-4 ~min_bytes:44 ~max_bytes:4096
  in
  let window = Time.us (40 * nvcs) in
  let flows = Matrix.pair_burst rng ~src:1 ~dst:0 ~flows:nvcs ~cdf ~window in
  let offered_bytes = Matrix.total_bytes flows in
  let flows = List.mapi (fun i f -> (i, f)) flows in
  Process.spawn eng ~name:"demux-tx" (fun () ->
      List.iter
        (fun (i, f) ->
          let gap = f.Matrix.f_start - Engine.now eng in
          if gap > 0 then Process.sleep eng gap;
          let m = Msg.alloc sender.Host.vs ~len:f.Matrix.f_bytes () in
          Driver.send sender.Host.driver ~vci:vcs.(i).Network.src_vci m)
        flows);
  (* Setup itself exercised the tables (binds, route installs); the
     figure charges only the steady-state per-cell lookups. *)
  Board.reset_demux_stats recv.Host.board;
  Switch.reset_route_stats topo.Network.switches.(0);
  Engine.run ~until:(window + Time.ms 20) eng;
  let sw = topo.Network.switches.(0) in
  let violations =
    Network.audit topo
    @ (let bstats = Board.stats recv.Host.board in
       let explained =
         bstats.Board.pdus_dropped_no_buffer
         + bstats.Board.reassembly_timeouts
         + bstats.Board.reassembly_errors
       in
       let lost = nvcs - !delivered in
       (if lost <> explained then
          [
            Printf.sprintf
              "demux_scale: %d of %d flows lost but receiver counters \
               explain %d"
              lost nvcs explained;
          ]
        else [])
       @
       if lost = 0 && !delivered_bytes <> offered_bytes then
         [
           Printf.sprintf "demux_scale: %d of %d bytes delivered"
             !delivered_bytes offered_bytes;
         ]
       else [])
    @
    if path_enums > 4 then
      [
        Printf.sprintf
          "demux_scale: %d path enumerations for one (src,dst) pair — bulk \
           VC setup is not O(1) amortized"
          path_enums;
      ]
    else []
  in
  {
    nvcs;
    delivered_pdus = !delivered;
    demux = Board.demux_stats recv.Host.board;
    route = Switch.route_stats sw;
    nroutes = Switch.nroutes sw;
    resident_bytes_per_vc =
      Board.demux_resident_bytes recv.Host.board / Int.max 1 nvcs;
    violations;
  }

(* ------------------------------------------------------------------ *)
(* The BENCH figure: per-cell classification cost vs concurrent VCs.
   The hashed tables hold the cost flat from 64 to 8192 VCs on both
   machines while the linear-scan baseline grows with the table; the
   probe bound, both tables' structure and the whole-fabric audit are
   checked at every sweep point. *)

let sweep_vcs = [ 64; 256; 1024; 4096; 8192 ]

let figure () =
  let pts = List.map (fun nvcs -> run ~nvcs ()) sweep_vcs in
  List.iter
    (fun p ->
      if p.violations <> [] then
        failwith
          ("demux_scale: invariant violation: "
          ^ String.concat "; " p.violations))
    pts;
  let first = List.hd pts and last = List.nth pts (List.length pts - 1) in
  let ds = profile_of Machine.ds5000_200
  and alpha = profile_of Machine.dec3000_600 in
  (* The acceptance gates: hashed cost stays within 1.5x of the 64-VC
     cost out to 8192 VCs, while the linear baseline has grown by well
     over an order of magnitude. Probe ratios are machine-independent,
     so one gate covers both profiles. *)
  if hashed_ns ds last > 1.5 *. hashed_ns ds first then
    failwith
      (Printf.sprintf
         "demux_scale: hashed cost not flat: %.1f ns/cell at %d VCs vs %.1f \
          at %d"
         (hashed_ns ds last) last.nvcs (hashed_ns ds first) first.nvcs);
  if linear_ns ds last < 4. *. linear_ns ds first then
    failwith "demux_scale: linear baseline failed to grow with table size";
  let pt f = List.map (fun p -> (p.nvcs, f p)) pts in
  {
    Report.title =
      "demux scale: per-cell classification cost (board VC demux + switch \
       routing) vs concurrent VCs, hashed tables vs linear-scan baseline, \
       web-search-CDF flows, tables and conservation audited";
    xlabel = "concurrent VCs at one receiver";
    ylabel = "ns per cell / probes / bytes (see series)";
    series =
      [
        { Report.label = "hashed ns/cell (5000/200)"; points = pt (hashed_ns ds) };
        { Report.label = "linear-scan ns/cell (5000/200)"; points = pt (linear_ns ds) };
        { Report.label = "hashed ns/cell (3000/600)"; points = pt (hashed_ns alpha) };
        { Report.label = "linear-scan ns/cell (3000/600)"; points = pt (linear_ns alpha) };
        { Report.label = "demux p99 probes"; points = pt (fun p -> float_of_int p.demux.Ctable.p99_probe) };
        { Report.label = "demux max probes"; points = pt (fun p -> float_of_int p.demux.Ctable.max_probe) };
        { Report.label = "resident bytes per VC"; points = pt (fun p -> float_of_int p.resident_bytes_per_vc) };
        { Report.label = "delivered PDUs"; points = pt (fun p -> float_of_int p.delivered_pdus) };
      ];
    paper_note =
      "software-perspective extension, not a paper figure: OSIRIS left \
       demultiplexing to the host, and §2.5's lesson that per-cell work \
       must stay constant motivates the hashed on-board classification \
       modeled here — Robin-Hood probing keeps cost flat to 8192 VCs \
       where a scanned list's cost tracks the connection count";
  }
