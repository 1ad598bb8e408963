open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Switch = Osiris_switch.Switch
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux

type outcome = {
  queue_cells : int;
  offered_pdus : int;
  delivered_pdus : int;
  corrupted_delivered : int;
  goodput_mbps : float;
  cells_in : int;
  switch_dropped : int;
  residual_queued : int;
  timeout_aborts : int;
  reassembly_timeouts : int;
  reassembly_errors : int;
  pdus_dropped_no_buffer : int;
  violations : string list;
}

(* The accounting contract behind the figure: every offered PDU must be
   delivered byte-exact, or its loss must be explained by switch drops
   with the receiver's recovery path (reassembly timeout sweeps, sequence
   aborts, CRC rejects) having absorbed the damage — never by a leak. *)
let accounting o =
  let lost = o.offered_pdus - o.delivered_pdus in
  (if lost > 0 && o.switch_dropped = 0 then
     [
       Printf.sprintf
         "incast accounting: %d PDUs lost but the switch dropped no cells"
         lost;
     ]
   else [])
  @ (if
       lost > 0
       && o.reassembly_timeouts + o.reassembly_errors + o.timeout_aborts
          + o.pdus_dropped_no_buffer
          = 0
       && o.switch_dropped < o.cells_in / Int.max 1 o.offered_pdus
     then
       [
         Printf.sprintf
           "incast accounting: %d PDUs lost with no recovery-path \
            evidence at the receiver"
           lost;
       ]
     else [])
  @
  if o.residual_queued > 0 then
    [
      Printf.sprintf
        "incast accounting: %d cells still queued in the switch after the \
         grace period"
        o.residual_queued;
    ]
  else []

let run ?(senders = 3) ?(queue_cells = 48) ?(rounds = 10) ?(seed = 5) () =
  let machine = Machine.ds5000_200 and msg_size = 2048 in
  let round_gap = Time.us 400 and stagger = Time.us 30 in
  let board =
    {
      Board.default_config with
      Board.reassembly_timeout = Time.ms 2;
      irq_reassert = Time.us 500;
    }
  in
  let cfg = { Host.default_config with Host.board; seed = 4000 + seed } in
  let switch = { Switch.default_config with Switch.queue_cells } in
  let eng, topo =
    Network.star ~n:(senders + 1) ~machine ~config:cfg ~switch
      ~seed:(100 + seed) ()
  in
  let recv = Network.host topo 0 in
  let vcs =
    Array.init senders (fun i -> Network.open_vc topo ~src:(i + 1) ~dst:0)
  in
  let sink = Fault_soak.sink () in
  Array.iter
    (fun vc ->
      Demux.bind recv.Host.demux ~vci:vc.Network.dst_vci ~name:"incast-sink"
        (Fault_soak.deliver sink ~msg_size))
    vcs;
  (* All senders blast the same receiver port in near-synchronized rounds
     (a small per-sender stagger keeps the contention partial rather than
     all-or-nothing), one PDU per round, paced so the output port can
     drain between rounds — loss comes from burst contention at the
     switch's output queue, not from a saturated steady state. *)
  Array.iteri
    (fun i vc ->
      let sender = Network.host topo (i + 1) in
      Process.spawn eng
        ~name:(Printf.sprintf "incast-tx%d" i)
        (fun () ->
          Process.sleep eng (stagger * i);
          for r = 0 to rounds - 1 do
            let id = (i * rounds) + r in
            let m = Msg.alloc sender.Host.vs ~len:msg_size () in
            Msg.blit_into m ~off:0
              ~src:(Fault_soak.fill_pattern ~msg:id ~len:msg_size);
            Driver.send sender.Host.driver ~vci:vc.Network.src_vci m;
            Process.sleep eng round_gap
          done))
    vcs;
  let horizon = (round_gap * rounds) + (stagger * senders) + Time.ms 2 in
  Engine.run ~until:(horizon + Time.ms 8) eng;
  let sw = topo.Network.switches.(0) in
  let st = Switch.stats sw in
  let dstats = Driver.stats recv.Host.driver in
  let bstats = Board.stats recv.Host.board in
  let offered_pdus = senders * rounds in
  let active_ns = Int.max 1 horizon in
  let o =
    {
      queue_cells;
      offered_pdus;
      delivered_pdus = sink.Fault_soak.s_delivered;
      corrupted_delivered = sink.Fault_soak.s_corrupted;
      goodput_mbps =
        Report.mbps ~bytes_count:sink.Fault_soak.s_bytes_ok ~ns:active_ns;
      cells_in = st.Switch.cells_in;
      switch_dropped =
        st.Switch.dropped_overflow + st.Switch.dropped_no_route;
      residual_queued = Switch.occupancy sw;
      timeout_aborts = dstats.Driver.timeout_aborts;
      reassembly_timeouts = bstats.Board.reassembly_timeouts;
      reassembly_errors = bstats.Board.reassembly_errors;
      pdus_dropped_no_buffer = bstats.Board.pdus_dropped_no_buffer;
      violations = Network.audit topo;
    }
  in
  { o with violations = o.violations @ accounting o }

(* ------------------------------------------------------------------ *)
(* The BENCH figure: sweep the output-queue capacity under a fixed
   3-sender burst pattern. Small queues damage most PDUs (every drop
   kills a whole PDU at reassembly); once the queue covers a full round's
   burst, everything gets through. *)

let sweep_queues = [ 12; 24; 48; 96; 144; 192 ]

let figure_goodput_vs_queue () =
  let outs = List.map (fun q -> run ~queue_cells:q ()) sweep_queues in
  List.iter
    (fun o ->
      if o.violations <> [] then
        failwith
          ("incast: invariant violation: " ^ String.concat "; " o.violations))
    outs;
  let pt f = List.map (fun o -> (o.queue_cells, f o)) outs in
  {
    Report.title =
      "incast: 3 senders blast 1 receiver through one switch output port \
       (2 KB PDUs, synchronized rounds, recovery timers on)";
    xlabel = "output queue capacity (cells)";
    ylabel = "PDUs / cells / Mb/s (see series)";
    series =
      [
        { Report.label = "offered PDUs"; points = pt (fun o -> float_of_int o.offered_pdus) };
        { Report.label = "delivered PDUs"; points = pt (fun o -> float_of_int o.delivered_pdus) };
        { Report.label = "rx timeout aborts"; points = pt (fun o -> float_of_int (o.reassembly_timeouts + o.timeout_aborts)) };
        { Report.label = "switch cell drops"; points = pt (fun o -> float_of_int o.switch_dropped) };
        { Report.label = "goodput (Mb/s)"; points = pt (fun o -> o.goodput_mbps) };
      ];
    paper_note =
      "testbed extension, not a paper figure: AURORA's switches sat \
       between the OSIRIS boards; output-queue overflow during \
       many-to-one bursts is absorbed by the adaptor's reassembly \
       timeout and CRC machinery — every loss is accounted (cells in = \
       forwarded + queued + dropped; lost PDUs imply switch drops), \
       nothing leaks";
  }
