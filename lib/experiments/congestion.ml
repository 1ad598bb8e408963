open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Switch = Osiris_switch.Switch
module Plan = Osiris_fault.Plan
module Injector = Osiris_fault.Injector
module Rng = Osiris_util.Rng
module Atm_link = Osiris_link.Atm_link
module Board = Osiris_board.Board
module Sender = Osiris_transport.Sender
module Spray = Osiris_lb.Spray

(* Incast revisited with a real transport: where [Incast] blasts open-loop
   PDUs into one switch output port and reads the damage off the queue
   capacity, here every sender runs the windowed, congestion-controlled
   transport and the question becomes how much work the fabric wastes —
   retransmitted bytes vs queue depth — and whether ECN-style marking
   removes the cliff. *)

(* The sweep hosts are provisioned Alphas with memory scaled down to
   8 MB (each host backs its simulated memory with a real [Bytes.t], and
   a sweep stands up dozens of them). The fast profile is deliberate:
   on the DECstation the adaptor's no-buffer drop (§3.1) throttles every
   sender long before the switch queue fills, so a queue-capacity sweep
   would only re-measure the host bottleneck that Figures 2-4 already
   characterize. Provisioned hosts isolate the variable under study —
   the fabric's output queue. *)
let small_machine =
  {
    Machine.dec3000_600 with
    Machine.mem_size = 8 * 1024 * 1024;
    (* Enough circulating receive buffers that eight concurrent streams
       of short PDUs (up to 8 x window = 128 PDUs in flight) never
       exhaust the pool: a no-buffer drop at the receiving board would
       be a second, host-side loss point confounding the queue-capacity
       sweep. The descriptor queues must be deepened to match — the
       driver caps circulating buffers at [queue_size - 1]. *)
    rx_pool_buffers = 192;
  }

(* OC-1 aggregate (still striped four ways, matching the boards) instead
   of OC-12: at 51.84 Mb/s the bandwidth-delay product is a few dozen
   cells, the same order as the queue capacities under study, so a
   12-cell queue is a meaningfully shallow buffer rather than a rounding
   error against the pipe. (At the full striped rate the BDP alone is
   ~300 cells and no feedback, however prompt, could hold 90%
   utilization over a 12-cell queue.) *)
let sweep_link =
  { Atm_link.default_config with Atm_link.link_rate_bps = 12_960_000 }

(* Transport tuning for a fabric whose bottleneck queue may hold barely
   two segments: short segments keep the per-segment cell burst (4 cells
   framed) small enough that two PDUs fit even the shallowest queue
   under packet-discard admission, and the RTO floor sits above the
   congested round-trip so timeouts mean loss, not queueing. *)
let transport_config =
  {
    Sender.default_config with
    Sender.seg_size = 128;
    window = 16;
    init_cwnd = 2;
    (* The RTO floor sits above the worst queueing round-trip (dozens of
       16-segment windows draining one port inflate the RTT past 2 ms),
       so a timeout means loss, never mere queueing. *)
    rto_init = Time.ms 6;
    rto_min = Time.ms 3;
    rto_max = Time.ms 100;
    max_retries = 12;
  }

type outcome = {
  flows : Flows.outcome;
  queue_cells : int;
  mark_threshold : int;  (** 0 = marking off *)
  retransmits : int;
  retransmit_bytes : int;
  ece_acks : int;
  marked_cells : int;
  host_dropped : int;
      (** PDUs the boards dropped for want of a receive buffer (§3.1) *)
}

(* The traffic contract: every offered byte delivered exactly once, and
   every retransmission traceable to fabric damage — on a fault-free
   fabric a sender only retransmits because the switch dropped cells. *)
let accounting ~fault_free o =
  let f = o.flows in
  (if f.Flows.delivered_bytes <> f.Flows.offered_bytes || not f.Flows.byte_exact
   then
     [
       Printf.sprintf
         "congestion accounting: %d of %d bytes delivered%s"
         f.Flows.delivered_bytes f.Flows.offered_bytes
         (if f.Flows.byte_exact then "" else " (stream mismatch)");
     ]
   else [])
  @ (if
       fault_free && o.retransmits > 0
       && f.Flows.switch_dropped = 0 && o.host_dropped = 0
     then
       [
         Printf.sprintf
           "congestion accounting: %d retransmits though neither fabric nor \
            adaptor dropped anything"
           o.retransmits;
       ]
     else [])
  @
  if fault_free && o.marked_cells = 0 && o.mark_threshold > 0 && o.ece_acks > 0
  then [ "congestion accounting: ECE echoes without any marked cell" ]
  else []

let run ?(senders = 6) ?(queue_cells = 48) ?(marking = false)
    ?(bytes_per_sender = 16 * 1024) ?(seed = 5) ?(config = transport_config)
    ?plan ?(cap = Time.s 4) () =
  let mark_threshold = if marking then Int.max 2 (queue_cells / 3) else 0 in
  let eng, topo =
    Network.star ~n:(senders + 1) ~machine:small_machine
      ~config:(Flows.host_config ~seed:(9000 + seed))
      ~link:sweep_link
      ~switch:(Flows.switch_config config ~queue_cells ~mark_threshold)
      ~seed:(300 + seed) ()
  in
  let flows =
    Flows.connect eng topo ~name:"cc" ~config ~mode:Spray.Single
      ~bytes:bytes_per_sender
      (Array.init senders (fun i -> (i + 1, 0)))
  in
  let sw = topo.Network.switches.(0) in
  (* Optional fault plan: fabric faults (port flaps) ride the switch,
     host-link faults the receiver's downlink (every stream crosses
     it). Armed in this order, after connecting and before the starts
     are scheduled: the order fixes the soak's event sequence. *)
  Option.iter
    (fun p ->
      ignore
        (Injector.inject_topology eng ~plan:p ~switches:topo.Network.switches
           ~trunks:topo.Network.trunks ());
      ignore
        (Injector.inject eng ~plan:p
           ~link:topo.Network.endpoints.(0).Network.from_fabric ()))
    plan;
  let f =
    Flows.run flows
      ~jitter:(Rng.create ~seed:(0x57a6_6e2d lxor seed))
      ~every_us:400 ~spread_us:300 ~cap
  in
  let st = Switch.stats sw in
  let sum = Flows.sum flows in
  let o =
    {
      flows = f;
      queue_cells;
      mark_threshold;
      retransmits = sum (fun s -> s.Sender.retransmits);
      retransmit_bytes = sum (fun s -> s.Sender.retransmit_bytes);
      ece_acks = sum (fun s -> s.Sender.ece_acks);
      marked_cells = st.Switch.marked;
      host_dropped =
        Array.fold_left
          (fun a e ->
            let st = Board.stats e.Network.host.Host.board in
            a + st.Board.pdus_dropped_no_buffer)
          0 topo.Network.endpoints;
    }
  in
  let violations =
    f.Flows.violations @ accounting ~fault_free:(plan = None) o
  in
  { o with flows = { f with Flows.violations } }

(* ------------------------------------------------------------------ *)
(* The BENCH figure: retransmitted bytes and completion time vs queue
   capacity, marking off vs on, against a provisioned-lossless baseline.
   Marking off shows the incast cliff (shallow queues burn the wire on
   retransmissions); marking on must hold goodput at >= 90% of the
   baseline at every capacity and waste monotonically less as the queue
   grows. *)

let sweep_queues = [ 12; 24; 48; 96; 144; 192 ]

(* Goodput ratio: all runs deliver every byte eventually, so "goodput"
   compares completion times — baseline wall-clock over this run's. *)
let goodput_ratio ~baseline o =
  match (baseline.flows.Flows.completion, o.flows.Flows.completion) with
  | Some t0, Some t -> float_of_int t0 /. float_of_int (Int.max 1 t)
  | _ -> 0.0

let check_figure ~baseline ~marked outs =
  let errs = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun o ->
      List.iter (bad "%s")
        (Flows.check ~tag:(Printf.sprintf "q=%d" o.queue_cells) o.flows))
    (baseline :: outs @ marked);
  List.iter
    (fun o ->
      let r = goodput_ratio ~baseline o in
      if r < 0.9 then
        bad "marking on, q=%d: goodput ratio %.2f below 0.9" o.queue_cells r)
    marked;
  (* Retransmitted bytes must fall (within noise) as the queue deepens. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        if
          float_of_int b.retransmit_bytes
          > (1.10 *. float_of_int a.retransmit_bytes) +. 512.
        then
          bad "marking on: retransmit bytes rise from q=%d (%d) to q=%d (%d)"
            a.queue_cells a.retransmit_bytes b.queue_cells b.retransmit_bytes;
        monotone rest
    | _ -> ()
  in
  monotone marked;
  List.rev !errs

let figure_retransmits_vs_queue () =
  let senders = 8 and bytes_per_sender = 32 * 1024 in
  let baseline =
    run ~senders ~queue_cells:4096 ~marking:false ~bytes_per_sender ()
  in
  let plain =
    List.map
      (fun q -> run ~senders ~queue_cells:q ~marking:false ~bytes_per_sender ())
      sweep_queues
  in
  let marked =
    List.map
      (fun q -> run ~senders ~queue_cells:q ~marking:true ~bytes_per_sender ())
      sweep_queues
  in
  (* One point an order of magnitude wider (ROADMAP: "sweep sender counts
     into the hundreds"): 64 senders incast the same port, marking on,
     queue scaled with the fan-in. Smaller per-sender transfers keep the
     run's wall time in budget; the bar is the absolute one — everything
     delivered byte-exact with zero invariant violations — not the
     8-sender series' goodput ratios, which assume mild overcommit. *)
  let wide =
    run ~senders:64 ~queue_cells:256 ~marking:true
      ~bytes_per_sender:(8 * 1024) ~cap:(Time.s 16) ()
  in
  (match
     check_figure ~baseline ~marked plain
     @ Flows.check ~tag:"64 senders" wide.flows
   with
  | [] -> ()
  | errs -> failwith ("congestion: " ^ String.concat "; " errs));
  let pt outs f = List.map (fun o -> (o.queue_cells, f o)) outs in
  let completion_ms o =
    match o.flows.Flows.completion with
    | Some t -> Time.to_float_us t /. 1000.
    | None -> Float.nan
  in
  {
    Report.title =
      Printf.sprintf
        "congestion: %d windowed senders incast one switch port; \
         retransmitted bytes and completion vs queue capacity, ECN marking \
         off vs on (baseline: lossless 4096-cell queue)"
        senders;
    xlabel = "output queue capacity (cells)";
    ylabel = "bytes / ms / ratio (see series)";
    series =
      [
        {
          Report.label = "retransmitted bytes (marking off)";
          points = pt plain (fun o -> float_of_int o.retransmit_bytes);
        };
        {
          Report.label = "retransmitted bytes (marking on)";
          points = pt marked (fun o -> float_of_int o.retransmit_bytes);
        };
        {
          Report.label = "completion ms (marking off)";
          points = pt plain completion_ms;
        };
        {
          Report.label = "completion ms (marking on)";
          points = pt marked completion_ms;
        };
        {
          Report.label = "goodput ratio vs lossless (marking on)";
          points = pt marked (goodput_ratio ~baseline);
        };
        {
          Report.label = "switch cell drops (marking on)";
          points =
            pt marked (fun o -> float_of_int o.flows.Flows.switch_dropped);
        };
        {
          Report.label = "retransmitted bytes (64 senders, marking on)";
          points = [ (wide.queue_cells, float_of_int wide.retransmit_bytes) ];
        };
        {
          Report.label = "completion ms (64 senders, marking on)";
          points = [ (wide.queue_cells, completion_ms wide) ];
        };
      ];
    paper_note =
      "testbed extension, not a paper figure: the adaptor's reassembly \
       machinery turns any cell drop into a whole-PDU loss (2.6), so an \
       unmarked shallow queue makes the transport resend multiples of the \
       offered bytes — the incast cliff. Threshold marking carried in the \
       cell header (EFCI-style), surfaced by the SAR and echoed in acks \
       lets senders back off before overflow: goodput stays within 10% of \
       the provisioned-lossless baseline at every capacity and the wasted \
       bytes fall monotonically with queue depth.";
  }

(* ------------------------------------------------------------------ *)
(* Seeded fault soak: every seed derives a random host-link plan plus a
   port-flap storm and (harmless on a star) a trunk-loss burst, and the
   acceptance bar is byte-exact delivery on every stream with bounded
   retransmission work and zero invariant violations. *)

let soak_plan ~seed ~horizon ~port =
  let base = Plan.random ~seed ~horizon () in
  let rng = Rng.create ~seed:(seed lxor 0x0f1a_9001) in
  let from = horizon / 10 * (1 + Rng.int rng 4) in
  let len = horizon / 10 * (1 + Rng.int rng 3) in
  let w = { Plan.w_from = from; w_until = Int.min (from + len) (horizon * 9 / 10) } in
  let hp = Time.us (50 + Rng.int rng 400) in
  {
    base with
    Plan.sw_flap = [ (0, port, w, hp) ];
    trunk_loss =
      [ { Plan.b_from = w.Plan.w_from; b_until = w.Plan.w_until; prob = 0.001 } ];
  }

let soak () =
  List.init 8 (fun i ->
      let seed = 40 + i in
      let horizon = Time.ms 40 in
      (* The flap targets the receiver's output port — every stream's
         bottleneck — so each seed exercises stall + recovery. *)
      let plan = soak_plan ~seed ~horizon ~port:0 in
      let o =
        run ~senders:3 ~queue_cells:96 ~marking:true
          ~bytes_per_sender:(8 * 1024) ~seed
          ~plan
          ~config:
            {
              transport_config with
              Sender.max_retries = 20;
              rto_max = Time.ms 30;
            }
          ~cap:(Time.s 8) ()
      in
      (seed, o))

let soak_violations results =
  List.concat_map
    (fun (seed, o) ->
      let tag = Printf.sprintf "soak seed %d" seed in
      let offered = o.flows.Flows.offered_bytes in
      Flows.check ~tag o.flows
      @
      if o.retransmit_bytes > 2 * offered then
        [
          Printf.sprintf "%s: unbounded retransmission (%d B for %d offered)"
            tag o.retransmit_bytes offered;
        ]
      else [])
    results
