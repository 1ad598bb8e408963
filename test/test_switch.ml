(* The cell-switch fabric: routing-table rewriting, overflow drop
   accounting against the always-on conservation equation, multi-host
   topologies (star and two-switch chain) delivering PDUs end to end,
   the seeded incast contention run with every loss accounted, the
   switch datapath under explored enqueue/dequeue interleavings, a down
   port's drain, and seeded scenarios pinned to digests. *)

open Osiris_core
module Engine = Osiris_sim.Engine
module Process = Osiris_sim.Process
module Time = Osiris_sim.Time
module Cell = Osiris_atm.Cell
module Atm_link = Osiris_link.Atm_link
module Rng = Osiris_util.Rng
module Switch = Osiris_switch.Switch
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Explore = Osiris_check.Explore
module Scenarios = Osiris_check.Scenarios
module Incast = Osiris_experiments.Incast
module Fault_soak = Osiris_experiments.Fault_soak
module Metrics = Osiris_obs.Metrics

let cell ?(vci = 10) ?(seq = 0) () =
  Cell.make ~vci ~seq ~eom:true ~last_of_pdu:true
    (Bytes.make Cell.data_size '\000')

let check_conservation sw =
  Alcotest.(check (list string))
    "cells in = forwarded + queued + dropped" []
    (Invariants.balance ~what:"switch"
       ~total:(Switch.stats sw).Switch.cells_in
       ~parts:(Switch.conservation sw))

(* Routing: the (in_port, in_vci) key picks the output port, the VCI is
   rewritten on the way through, replacement updates in place, and a
   cell with no entry is dropped and counted — never misdelivered. *)
let test_routing_rewrite () =
  let eng = Engine.create () in
  let sw =
    Switch.create eng { Switch.default_config with Switch.nports = 3 }
  in
  Switch.add_route sw ~in_port:0 ~in_vci:10 ~out_port:1 ~out_vci:20;
  Switch.add_route sw ~in_port:0 ~in_vci:11 ~out_port:2 ~out_vci:21;
  Switch.add_route sw ~in_port:1 ~in_vci:10 ~out_port:2 ~out_vci:22;
  Alcotest.(check (option (pair int int)))
    "same in_vci, different in_port"
    (Some (2, 22))
    (Switch.route sw ~in_port:1 ~in_vci:10);
  Switch.ingress_cell sw ~port:0 (cell ~vci:10 ~seq:5 ());
  Switch.ingress_cell sw ~port:0 (cell ~vci:11 ());
  Switch.ingress_cell sw ~port:1 (cell ~vci:10 ());
  Switch.ingress_cell sw ~port:2 (cell ~vci:99 ());
  (* unroutable *)
  (match Switch.drain_one sw ~port:1 with
  | Some c ->
      Alcotest.(check int) "VCI rewritten" 20 c.Cell.vci;
      Alcotest.(check int) "seq preserved for striping" 5 c.Cell.seq;
      Alcotest.(check bool) "framing preserved" true
        (c.Cell.eom && c.Cell.last_of_pdu)
  | None -> Alcotest.fail "port 1 should hold the rewritten cell");
  Alcotest.(check int) "port 2 queued both routed cells" 2
    (Switch.port_occupancy sw ~port:2);
  let s = Switch.stats sw in
  Alcotest.(check int) "unroutable cell counted" 1 s.Switch.dropped_no_route;
  Alcotest.(check int) "no overflow" 0 s.Switch.dropped_overflow;
  check_conservation sw;
  (* Replacement: reprogramming the same key redirects new cells. *)
  Switch.add_route sw ~in_port:0 ~in_vci:10 ~out_port:2 ~out_vci:30;
  Switch.ingress_cell sw ~port:0 (cell ~vci:10 ());
  Alcotest.(check int) "rerouted cell joined port 2" 3
    (Switch.port_occupancy sw ~port:2);
  check_conservation sw;
  Alcotest.check_raises "16-bit VCI enforced"
    (Invalid_argument "Switch.add_route: vci out of range") (fun () ->
      Switch.add_route sw ~in_port:0 ~in_vci:1 ~out_port:1 ~out_vci:0x1_0000);
  Alcotest.check_raises "port range enforced"
    (Invalid_argument "Switch.add_route: port 3 out of range") (fun () ->
      Switch.add_route sw ~in_port:0 ~in_vci:1 ~out_port:3 ~out_vci:1)

(* Overflow: a queue of [cap] cells accepts exactly [cap] of a burst,
   drops the rest under the dedicated counter, and the conservation
   equation holds at the instant of the drop, mid-drain and after. *)
let test_overflow_drop_accounting () =
  let eng = Engine.create () in
  let cap = 4 and burst = 11 in
  let sw =
    Switch.create eng
      { Switch.default_config with Switch.nports = 2; Switch.queue_cells = cap }
  in
  Switch.add_route sw ~in_port:0 ~in_vci:10 ~out_port:1 ~out_vci:20;
  for seq = 0 to burst - 1 do
    Switch.ingress_cell sw ~port:0 (cell ~vci:10 ~seq ());
    check_conservation sw
  done;
  let s = Switch.stats sw in
  Alcotest.(check int) "queue filled to capacity" cap
    (Switch.port_occupancy sw ~port:1);
  Alcotest.(check int) "excess dropped" (burst - cap) s.Switch.dropped_overflow;
  Alcotest.(check int) "high-water mark" cap s.Switch.max_occupancy;
  (* Drain: FIFO order, each dequeue counted as forwarded. *)
  for seq = 0 to cap - 1 do
    (match Switch.drain_one sw ~port:1 with
    | Some c -> Alcotest.(check int) "FIFO order" seq c.Cell.seq
    | None -> Alcotest.fail "queue drained early");
    check_conservation sw
  done;
  Alcotest.(check (option reject)) "empty after drain" None
    (Switch.drain_one sw ~port:1);
  Alcotest.(check int) "all survivors forwarded" cap
    (Switch.stats sw).Switch.forwarded;
  check_conservation sw;
  (* Freed capacity accepts new cells again. *)
  Switch.ingress_cell sw ~port:0 (cell ~vci:10 ~seq:50 ());
  Alcotest.(check int) "capacity recovered" 1 (Switch.port_occupancy sw ~port:1);
  check_conservation sw

(* A star topology delivers byte-exact PDUs from every leaf to the hub
   host, each on its own freshly allocated VC. The two senders' eight
   PDUs back up to 520 cells at the hub's port. *)
let test_star_end_to_end () =
  let eng, topo =
    Network.star ~n:3
      ~switch:{ Switch.default_config with Switch.queue_cells = 1024 }
      ()
  in
  let dst = Network.host topo 0 in
  let got = Array.make 3 0 in
  let senders = [ 1; 2 ] in
  List.iter
    (fun src ->
      let vc = Network.open_vc topo ~src ~dst:0 in
      let template = Fault_soak.fill_pattern ~msg:src ~len:6000 in
      Demux.bind dst.Host.demux ~vci:vc.Network.dst_vci
        ~name:(Printf.sprintf "sink%d" src) (fun ~vci:_ msg ->
          let data = Msg.read_all msg in
          if not (Bytes.equal data template) then
            Alcotest.failf "host %d delivered a corrupt PDU" src;
          got.(src) <- got.(src) + 1;
          Msg.dispose msg);
      let sender = Network.host topo src in
      Process.spawn eng ~name:(Printf.sprintf "tx%d" src) (fun () ->
          for _ = 1 to 4 do
            let m = Msg.alloc sender.Host.vs ~len:6000 () in
            Msg.blit_into m ~off:0 ~src:template;
            Driver.send sender.Host.driver ~vci:vc.Network.src_vci m;
            Process.sleep eng (Time.us 300)
          done))
    senders;
  Engine.run ~until:(Time.ms 20) eng;
  List.iter
    (fun src ->
      Alcotest.(check int)
        (Printf.sprintf "host %d delivered all PDUs" src)
        4 got.(src))
    senders;
  let s = Switch.stats topo.Network.switches.(0) in
  Alcotest.(check int) "fabric dropped nothing" 0
    (s.Switch.dropped_overflow + s.Switch.dropped_no_route);
  Alcotest.(check bool)
    (Printf.sprintf "fabric carried the cells (%d)" s.Switch.cells_in)
    true
    (s.Switch.cells_in > 0);
  check_conservation topo.Network.switches.(0)

(* A two-switch chain: the circuit crosses the trunk with a VCI rewrite
   at each hop, in both directions. *)
let test_chain_across_trunk () =
  let eng, topo =
    Network.chain ~n:4
      ~switch:{ Switch.default_config with Switch.queue_cells = 512 }
      ()
  in
  Alcotest.(check int) "four hosts" 4 (Network.nhosts topo);
  (* Host 0 lives on switch 0, host 3 on switch 1. *)
  Alcotest.(check int) "host 0 on switch 0" 0 topo.Network.endpoints.(0).Network.sw;
  Alcotest.(check int) "host 3 on switch 1" 1 topo.Network.endpoints.(3).Network.sw;
  let vc_there = Network.open_vc topo ~src:0 ~dst:3 in
  let vc_back = Network.open_vc topo ~src:3 ~dst:0 in
  Alcotest.(check bool) "fresh VCIs per circuit" true
    (vc_there.Network.src_vci <> vc_back.Network.src_vci);
  let run_dir ~src ~dst ~vc ~msg_id =
    let template = Fault_soak.fill_pattern ~msg:msg_id ~len:5000 in
    let got = ref 0 in
    let d = Network.host topo dst in
    Demux.bind d.Host.demux ~vci:vc.Network.dst_vci
      ~name:(Printf.sprintf "sink%d-%d" src dst) (fun ~vci:_ msg ->
        if not (Bytes.equal (Msg.read_all msg) template) then
          Alcotest.failf "%d->%d delivered a corrupt PDU" src dst;
        incr got;
        Msg.dispose msg);
    let s = Network.host topo src in
    Process.spawn eng ~name:(Printf.sprintf "tx%d-%d" src dst) (fun () ->
        for _ = 1 to 3 do
          let m = Msg.alloc s.Host.vs ~len:5000 () in
          Msg.blit_into m ~off:0 ~src:template;
          Driver.send s.Host.driver ~vci:vc.Network.src_vci m;
          Process.sleep eng (Time.us 400)
        done);
    got
  in
  let there = run_dir ~src:0 ~dst:3 ~vc:vc_there ~msg_id:1 in
  let back = run_dir ~src:3 ~dst:0 ~vc:vc_back ~msg_id:2 in
  Engine.run ~until:(Time.ms 25) eng;
  Alcotest.(check int) "0 -> 3 across the trunk" 3 !there;
  Alcotest.(check int) "3 -> 0 across the trunk" 3 !back;
  Array.iteri
    (fun i sw ->
      Alcotest.(check int)
        (Printf.sprintf "switch %d dropped nothing" i)
        0
        ((Switch.stats sw).Switch.dropped_overflow
        + (Switch.stats sw).Switch.dropped_no_route);
      check_conservation sw)
    topo.Network.switches

(* The fabric audit sees a cell on the wire. Mid-transfer it names the
   sender's host link and the trunk, each with cells offered but not yet
   delivered; once the PDU has landed it is clean. The switches are
   provisioned as in the chain test, so the PDU arrives whole. *)
let test_audit_sees_cells_in_flight () =
  let eng, topo =
    Network.chain ~n:4
      ~switch:{ Switch.default_config with Switch.queue_cells = 512 }
      ()
  in
  let vc = Network.open_vc topo ~src:0 ~dst:3 in
  let got = ref 0 in
  let d = Network.host topo 3 in
  Demux.bind d.Host.demux ~vci:vc.Network.dst_vci ~name:"audit-sink"
    (fun ~vci:_ msg ->
      incr got;
      Msg.dispose msg);
  let s = Network.host topo 0 in
  Process.spawn eng ~name:"audit-tx" (fun () ->
      Driver.send s.Host.driver ~vci:vc.Network.src_vci
        (Msg.alloc s.Host.vs ~len:6000 ()));
  Engine.run ~until:(Time.us 50) eng;
  let mid = Network.audit topo in
  let leaks link =
    let prefix = Printf.sprintf "link %d cell disposition:" link in
    List.exists
      (fun v ->
        String.starts_with ~prefix v
        && not (String.ends_with ~suffix:"(leaked 0)" v))
      mid
  in
  (* Link 0 is host 0's to-fabric link; the trunks follow the 2n host
     links, switch 0 -> switch 1 first. *)
  let trunk = 2 * Network.nhosts topo in
  Alcotest.(check bool)
    (Printf.sprintf "host link 0 in flight: %s" (String.concat "; " mid))
    true (leaks 0);
  Alcotest.(check bool)
    (Printf.sprintf "trunk link %d in flight" trunk)
    true (leaks trunk);
  Engine.run ~until:(Time.ms 20) eng;
  Alcotest.(check int) "PDU delivered" 1 !got;
  Alcotest.(check (list string)) "clean once delivered" []
    (Network.audit topo)

(* The seeded 3-sender incast: a queue small enough to drop under the
   synchronized burst, with the experiment's own accounting — switch
   conservation, host invariants at quiescence, and every lost PDU
   traceable to a switch drop plus a receiver-side recovery event. *)
let test_incast_conservation () =
  let o = Incast.run ~senders:3 ~queue_cells:24 ~rounds:4 ~seed:5 () in
  Alcotest.(check (list string)) "accounting clean" [] o.Incast.violations;
  Alcotest.(check int) "offered load" 12 o.Incast.offered_pdus;
  Alcotest.(check bool)
    (Printf.sprintf "the bottleneck bit: %d cell drops" o.Incast.switch_dropped)
    true
    (o.Incast.switch_dropped > 0);
  Alcotest.(check bool)
    (Printf.sprintf "delivered %d <= offered" o.Incast.delivered_pdus)
    true
    (o.Incast.delivered_pdus <= o.Incast.offered_pdus);
  Alcotest.(check int) "nothing corrupt" 0 o.Incast.corrupted_delivered;
  Alcotest.(check int) "switch queues drained" 0 o.Incast.residual_queued;
  (* Same seed, same run: the whole fabric is deterministic. *)
  let o' = Incast.run ~senders:3 ~queue_cells:24 ~rounds:4 ~seed:5 () in
  Alcotest.(check int) "deterministic deliveries" o.Incast.delivered_pdus
    o'.Incast.delivered_pdus;
  Alcotest.(check int) "deterministic drops" o.Incast.switch_dropped
    o'.Incast.switch_dropped

(* And a queue big enough for the burst: zero loss, full delivery. *)
let test_incast_lossless_when_provisioned () =
  let o = Incast.run ~senders:3 ~queue_cells:192 ~rounds:4 ~seed:5 () in
  Alcotest.(check (list string)) "accounting clean" [] o.Incast.violations;
  Alcotest.(check int) "no switch drops" 0 o.Incast.switch_dropped;
  Alcotest.(check int) "everything delivered" o.Incast.offered_pdus
    o.Incast.delivered_pdus

(* The switch datapath under explored same-instant interleavings of
   ingress and drain: conservation and VCI rewriting hold on every
   schedule, liveness at the end of each. *)
let test_explore_switch_datapath () =
  match Explore.dfs ~max_depth:8 ~max_runs:512 (Scenarios.switch_datapath ())
  with
  | Some f, _ ->
      Alcotest.failf "unexpected counterexample %s"
        (Format.asprintf "%a" Explore.pp_failure f)
  | None, runs ->
      Alcotest.(check bool)
        (Printf.sprintf "explored several schedules (%d)" runs)
        true (runs > 1)

(* ------------------------------------------------------------------ *)
(* Pinned switch behaviour. Each seed builds a random switch of 2 to 6
   ports with random routes and VCIs, feeds bursts of PDUs into small
   output queues (overflow drops, or EPD/PPD when packet discard is on),
   with marking on or off, over links of 1 to 4 skewed channels, some
   lossy, each with a squeezed input FIFO, and random port flaps and
   channel flips. The digest covers every delivered cell (time, port,
   channel, VCI, seq, marked), every switch and link counter, and the
   engine's event count. The digests were recorded from these
   scenarios on code that took the switching latency, propagation delay
   and FIFO depths as configuration, so the constants must reproduce
   every dispatch. *)

(* The library's link senders are callback agents; the test's fiber
   sources send through the same two halves and wait out backpressure
   with [Process.sleep], the events a blocking send cost. *)
let link_send eng link cell =
  let wait = Atm_link.send_wait link cell in
  if wait > 0 then Process.sleep eng wait;
  Atm_link.book link cell

let link_counters log l =
  let s = Atm_link.stats l in
  Buffer.add_string log
    (Printf.sprintf "|link %d %d %d %d %d %d %d %d %d" s.Atm_link.cells_sent
       s.Atm_link.cells_delivered s.Atm_link.dropped_fifo
       s.Atm_link.dropped_net s.Atm_link.corrupted s.Atm_link.reordered
       s.Atm_link.duplicated s.Atm_link.header_corrupted
       s.Atm_link.dropped_link_down)

let switch_scenario seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let eng = Engine.create () in
  let nports = 2 + int 5 in
  let queue_cells = 3 + int 10 in
  let epd = int 3 = 0 in
  let cfg =
    {
      Switch.nports;
      queue_cells;
      mark_threshold = (if int 2 = 0 then 1 + int queue_cells else 0);
      epd_reserve = (if epd then 1 + int queue_cells else 0);
    }
  in
  let sw = Switch.create eng ~name:"psw" cfg in
  let make_link i =
    let nlinks = 1 + int 4 in
    let link =
      Atm_link.create eng
        (Rng.create ~seed:((seed * 100) + i))
        {
          Atm_link.default_config with
          Atm_link.nlinks;
          skew = Array.init nlinks (fun _ -> int 800);
        }
    in
    if int 4 = 0 then Atm_link.set_drop_prob link 0.01;
    Atm_link.set_rx_fifo_limit link (4 + int 28);
    link
  in
  let ingress = Array.init nports make_link in
  let egress = Array.init nports (fun i -> make_link (50 + i)) in
  Array.iteri
    (fun port ing -> Switch.attach_port sw ~port ~ingress:ing ~egress:egress.(port))
    ingress;
  (* Routes: a few VCIs per input port, plus some left unrouted. *)
  let vcis =
    Array.init nports (fun in_port ->
        Array.init (1 + int 4) (fun _ ->
            let in_vci = 32 + int 2000 in
            if int 6 > 0 then
              Switch.add_route sw ~in_port ~in_vci ~out_port:(int nports)
                ~out_vci:(32 + int 60000);
            in_vci))
  in
  let log = Buffer.create 65536 in
  Array.iteri
    (fun port link ->
      Process.spawn eng ~name:(Printf.sprintf "sink%d" port) (fun () ->
          while true do
            let ch, (c : Cell.t) = Atm_link.recv link in
            Buffer.add_string log
              (Printf.sprintf "%d:p%d c%d v%d s%d %b;" (Engine.now eng) port
                 ch c.Cell.vci c.Cell.seq c.Cell.marked)
          done))
    egress;
  let payload = Bytes.make Cell.data_size 'p' in
  Array.iteri
    (fun port link ->
      let bursts = 8 + int 16 in
      let plan =
        List.init bursts (fun _ ->
            let gap = if int 3 = 0 then 0 else int 40_000 in
            let vci = vcis.(port).(int (Array.length vcis.(port))) in
            let cells = 1 + int 16 in
            (gap, vci, cells))
      in
      Process.spawn eng ~name:(Printf.sprintf "src%d" port) (fun () ->
          List.iter
            (fun (gap, vci, cells) ->
              if gap > 0 then Process.sleep eng gap;
              for seq = 0 to cells - 1 do
                let last = seq = cells - 1 in
                link_send eng link
                  (Cell.make ~vci ~seq ~eom:last ~last_of_pdu:last payload)
              done)
            plan))
    ingress;
  (* Faults: output-port flaps and channel flips on either side, all
     healed by 400 us so every queue can drain. *)
  for _ = 1 to int 8 do
    let port = int nports and at = int 300_000 in
    ignore
      (Engine.schedule_at eng ~time:at (fun () ->
           Switch.set_port_state sw ~port false));
    ignore
      (Engine.schedule_at eng ~time:(at + 1 + int 60_000) (fun () ->
           Switch.set_port_state sw ~port true))
  done;
  for _ = 1 to int 6 do
    let side = if int 2 = 0 then ingress else egress in
    let link = side.(int nports) in
    let ch = int (Atm_link.config link).Atm_link.nlinks in
    let at = int 300_000 in
    ignore
      (Engine.schedule_at eng ~time:at (fun () ->
           Atm_link.set_link_state link ~link:ch false));
    ignore
      (Engine.schedule_at eng ~time:(at + 1 + int 80_000) (fun () ->
           Atm_link.set_link_state link ~link:ch true))
  done;
  Switch.start sw;
  Engine.run ~until:(Time.ms 3) eng;
  let s = Switch.stats sw in
  Buffer.add_string log
    (Printf.sprintf "|sw %d %d %d %d %d %d %d %d occ %d"
       s.Switch.cells_in s.Switch.forwarded s.Switch.dropped_overflow
       s.Switch.dropped_no_route s.Switch.dropped_epd s.Switch.max_occupancy
       s.Switch.marked s.Switch.marked_forwarded (Switch.occupancy sw));
  Array.iter (link_counters log) (Array.append ingress egress);
  Buffer.add_string log
    (Printf.sprintf "|now %d events %d" (Engine.now eng)
       (Engine.events_dispatched eng));
  check_conservation sw;
  (Buffer.contents log, s)

(* The overloaded 3-host star: a 24-cell queue and two bursty senders,
   so the hub's port drops cells; pinned on its deliveries with
   timestamps, every switch counter, the final clock and the event
   count. *)
let overloaded_star_run switch =
  let eng, topo = Network.star ~n:3 ~switch () in
  let dst = Network.host topo 0 in
  let log = Buffer.create 1024 in
  List.iter
    (fun src ->
      let vc = Network.open_vc topo ~src ~dst:0 in
      Demux.bind dst.Host.demux ~vci:vc.Network.dst_vci
        ~name:(Printf.sprintf "sink%d" src) (fun ~vci:_ msg ->
          Buffer.add_string log (Printf.sprintf "%d@%d;" src (Engine.now eng));
          Msg.dispose msg);
      let sender = Network.host topo src in
      Process.spawn eng ~name:(Printf.sprintf "tx%d" src) (fun () ->
          for _ = 1 to 5 do
            let m = Msg.alloc sender.Host.vs ~len:4000 () in
            Msg.blit_into m ~off:0
              ~src:(Fault_soak.fill_pattern ~msg:src ~len:4000);
            Driver.send sender.Host.driver ~vci:vc.Network.src_vci m;
            Process.sleep eng (Time.us 150)
          done))
    [ 1; 2 ];
  Engine.run ~until:(Time.ms 15) eng;
  (eng, topo, log)

let overloaded_star () =
  let eng, topo, log =
    overloaded_star_run { Switch.default_config with Switch.queue_cells = 24 }
  in
  let sw = topo.Network.switches.(0) in
  check_conservation sw;
  let s = Switch.stats sw in
  Array.iter
    (fun ep ->
      link_counters log ep.Network.to_fabric;
      link_counters log ep.Network.from_fabric)
    topo.Network.endpoints;
  Buffer.add_string log
    (Printf.sprintf "|sw %d %d %d %d|now %d events %d" s.Switch.cells_in
       s.Switch.forwarded s.Switch.dropped_overflow s.Switch.max_occupancy
       (Engine.now eng) (Engine.events_dispatched eng));
  (Buffer.contents log, s.Switch.dropped_overflow)

(* The registry handles are each switch's only tally of its cell
   events: after a reset and the overloaded star run (with marking on),
   every switch.* value equals its field summed over the switches. *)
let test_registry_is_the_tally () =
  Metrics.reset ();
  let _eng, topo, _log =
    overloaded_star_run
      { Switch.default_config with Switch.queue_cells = 24; mark_threshold = 8 }
  in
  let sum f =
    Array.fold_left (fun a sw -> a + f (Switch.stats sw)) 0 topo.Network.switches
  in
  List.iter
    (fun (name, f) ->
      match Metrics.find name with
      | Some (Metrics.V_int v) -> Alcotest.(check int) name (sum f) v
      | _ -> Alcotest.failf "%s is not a registered counter" name)
    [
      ("switch.cells_in", fun s -> s.Switch.cells_in);
      ("switch.forwarded", fun s -> s.Switch.forwarded);
      ("switch.dropped_overflow", fun s -> s.Switch.dropped_overflow);
      ("switch.dropped_no_route", fun s -> s.Switch.dropped_no_route);
      ("switch.dropped_epd", fun s -> s.Switch.dropped_epd);
      ("switch.marked", fun s -> s.Switch.marked);
    ];
  Alcotest.(check bool) "the run drops and marks cells" true
    (sum (fun s -> s.Switch.dropped_overflow) > 0
    && sum (fun s -> s.Switch.marked) > 0)


(* A port that goes down stops draining: the cell already in the
   forwarding latency still leaves, and nothing after it. (The egress
   once pulled up to eight cells per wakeup and forwarded all of them
   across the cut.) *)
let test_port_down_stops_draining () =
  let eng = Engine.create () in
  let sw =
    Switch.create eng { Switch.default_config with Switch.nports = 2 }
  in
  let link seed =
    Atm_link.create eng (Rng.create ~seed) Atm_link.default_config
  in
  let egress = link 2 in
  Switch.attach_port sw ~port:0 ~ingress:(link 1) ~egress:(link 3);
  Switch.attach_port sw ~port:1 ~ingress:(link 4) ~egress;
  Switch.add_route sw ~in_port:0 ~in_vci:10 ~out_port:1 ~out_vci:20;
  for seq = 0 to 7 do
    Switch.ingress_cell sw ~port:0 (cell ~vci:10 ~seq ())
  done;
  Switch.start sw;
  ignore
    (Engine.schedule eng ~delay:(Time.us 1) (fun () ->
         Switch.set_port_state sw ~port:1 false));
  Engine.run ~until:(Time.us 100) eng;
  Alcotest.(check int) "one cell forwarded" 1 (Switch.stats sw).Switch.forwarded;
  Alcotest.(check int) "seven still queued" 7 (Switch.port_occupancy sw ~port:1);
  Alcotest.(check int) "one cell on the egress link" 1
    (Atm_link.stats egress).Atm_link.cells_sent;
  check_conservation sw;
  Switch.set_port_state sw ~port:1 true;
  Engine.run ~until:(Time.us 200) eng;
  Alcotest.(check int) "raising the port drains the rest" 8
    (Switch.stats sw).Switch.forwarded

let pinned_scenarios =
  [
    (1, "c789841ccd2b96ddbd0d184726ee18db");
    (2, "14bf179c0ff4f1e3f95114596a6172b6");
    (3, "bfa28de4c293a9c75f49ab7b51c57ac1");
    (4, "1077bd1d1433af00297bc06dccac6a82");
    (5, "111b5160e1f8054784d4dd6ce53ecc98");
    (6, "631332d10cba0ee2c57b953ab125d8e0");
    (7, "8fd1f9ec530d0e7f0febab5644bf8d37");
    (8, "2e903fbc1ebdb0065678d631295b2ae0");
    (9, "fd3d436817ee34bfde960d34e10a5661");
    (10, "f8935cf6ff1941c3ba7ae1fbb684402a");
    (11, "386ab884bfd1951ed1d47770c135947e");
    (12, "e8f1aa585252aefbfbdd83b2e76a0c24");
  ]

let test_pinned_scenarios () =
  let seen = Array.make 5 0 in
  List.iter
    (fun (seed, pinned) ->
      let log, s = switch_scenario seed in
      Alcotest.(check string)
        (Printf.sprintf "scenario %d digest" seed)
        pinned
        (Digest.to_hex (Digest.string log));
      List.iteri
        (fun i n -> seen.(i) <- seen.(i) + n)
        [ s.Switch.dropped_overflow; s.Switch.dropped_epd; s.Switch.marked;
          s.Switch.dropped_no_route; s.Switch.forwarded ])
    pinned_scenarios;
  List.iteri
    (fun i what ->
      Alcotest.(check bool)
        (Printf.sprintf "the scenarios exercise %s (%d)" what seen.(i))
        true (seen.(i) > 0))
    [ "overflow drops"; "packet discard"; "marking"; "unrouted cells";
      "forwarding" ]

let test_pinned_overloaded_star () =
  let log, drops = overloaded_star () in
  Alcotest.(check bool)
    (Printf.sprintf "workload overloads the queue (%d drops)" drops)
    true (drops > 0);
  Alcotest.(check string) "outcome digest" "5766508424a5740729c22b826276badf"
    (Digest.to_hex (Digest.string log))

let suite =
  [
    Alcotest.test_case "routing rewrites and drops unroutable cells" `Quick
      test_routing_rewrite;
    Alcotest.test_case "overflow drops are accounted" `Quick
      test_overflow_drop_accounting;
    Alcotest.test_case "star topology delivers end to end" `Quick
      test_star_end_to_end;
    Alcotest.test_case "chain crosses the trunk both ways" `Quick
      test_chain_across_trunk;
    Alcotest.test_case "incast conserves every cell" `Quick
      test_incast_conservation;
    Alcotest.test_case "provisioned incast is lossless" `Quick
      test_incast_lossless_when_provisioned;
    Alcotest.test_case "explored switch datapath stays clean" `Quick
      test_explore_switch_datapath;
    Alcotest.test_case "a down port stops draining" `Quick
      test_port_down_stops_draining;
    Alcotest.test_case "pinned scenarios: callback ports match" `Quick
      test_pinned_scenarios;
    Alcotest.test_case "registry counters are the switches' tally" `Quick
      test_registry_is_the_tally;
    Alcotest.test_case "pinned overloaded star" `Quick
      test_pinned_overloaded_star;
    Alcotest.test_case "fabric audit sees cells in flight" `Quick
      test_audit_sees_cells_in_flight;
  ]
