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
module Sar = Osiris_atm.Sar
module Wire = Osiris_transport.Wire
module Sender = Osiris_transport.Sender
module Transport = Osiris_transport.Transport

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
  senders : int;
  queue_cells : int;
  mark_threshold : int;  (** 0 = marking off *)
  offered_bytes : int;  (** total, all senders *)
  delivered_bytes : int;
  byte_exact : bool;  (** every stream delivered exactly, in order *)
  finished : int;  (** connections that reached Finished *)
  failed : int;  (** connections that aborted (max retries) *)
  completion : Time.t option;  (** last Finished instant; None if any didn't *)
  unique_sent : int;  (** segments, all senders *)
  retransmits : int;
  retransmit_bytes : int;
  timeouts : int;
  fast_retransmits : int;
  ece_acks : int;
  marked_cells : int;
  marked_pdus : int;
  switch_dropped : int;
  host_dropped : int;
      (** PDUs the boards dropped for want of a receive buffer (§3.1) *)
  cells_in : int;
  max_occupancy : int;
  violations : string list;
}

(* The traffic contract: every offered byte delivered exactly once, and
   every retransmission traceable to fabric damage — on a fault-free
   fabric a sender only retransmits because the switch dropped cells. *)
let accounting ~fault_free o =
  (if o.delivered_bytes <> o.offered_bytes || not o.byte_exact then
     [
       Printf.sprintf
         "congestion accounting: %d of %d bytes delivered%s" o.delivered_bytes
         o.offered_bytes
         (if o.byte_exact then "" else " (stream mismatch)");
     ]
   else [])
  @ (if
       fault_free && o.retransmits > 0
       && o.switch_dropped = 0 && o.host_dropped = 0
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

let run_until_done eng ~cap ~terminal =
  let slice = Time.ms 5 in
  let rec go () =
    let now = Engine.now eng in
    if (not (terminal ())) && now < cap then begin
      Engine.run ~until:(min cap (now + slice)) eng;
      go ()
    end
  in
  go ()

let run ?(senders = 6) ?(queue_cells = 48) ?(marking = false)
    ?(bytes_per_sender = 16 * 1024) ?(seed = 5) ?(config = transport_config)
    ?plan ?(cap = Time.s 4) () =
  let mark_threshold = if marking then max 2 (queue_cells / 3) else 0 in
  (* The fabric runs packet-discard (EPD/PPD) admission sized to the
     transport's data PDU: a congested queue sheds whole PDUs, never
     tails. Without it a shallow queue clips cells out of the middle of
     PDUs, and every clipped PDU costs far more than itself — the
     receiving board's stripe phase stays rotated until a reassembly
     timeout, so the loss of one cell silently CRC-kills the rest of the
     burst and only an RTO recovers. Whole-PDU losses leave the following
     PDUs deliverable, the receiver's sacks expose the hole, and fast
     retransmission repairs it in about a round trip. *)
  let epd_reserve =
    min queue_cells
      (Sar.cells_per_pdu (config.Sender.seg_size + Wire.data_header_size))
  in
  let switch =
    { Switch.default_config with
      Switch.queue_cells; mark_threshold; epd_reserve }
  in
  (* The board's reassembly-timeout sweep is load-bearing here: a cell
     dropped mid-PDU leaves the VC's stripe phase rotated, and every
     later PDU on that VC reassembles permuted (a steady CRC-drop trickle
     that no retransmission can outrun). The sweep fires during the
     sender's RTO pause and resets the phase, so the retransmission
     finds a clean reassembler. Keep it well under the RTO floor and
     well over a PDU's intra-queue spread. *)
  let host_cfg =
    {
      Host.default_config with
      Host.seed = 9000 + seed;
      board =
        {
          Host.default_config.Host.board with
          Board.reassembly_timeout = Time.ms 2;
          (* Deep enough for [small_machine]'s full buffer complement
             (the paper's 64-slot queues cap circulating buffers below
             the 128 PDUs eight windowed senders keep in flight). *)
          queue_size = 256;
        };
    }
  in
  let eng, topo =
    Network.star ~n:(senders + 1) ~machine:small_machine ~config:host_cfg
      ~link:sweep_link ~switch ~seed:(300 + seed) ()
  in
  let sinks = Array.init senders (fun _ -> Buffer.create bytes_per_sender) in
  let finish_times = Array.make senders None in
  let conns =
    Array.init senders (fun i ->
        (* Slightly different timer constants per sender: a shared RTO
           ceiling phase-locks backed-off senders (every retry collides
           with every other retry, forever). Real stacks are desynced by
           clock granularity and scheduling noise; the simulator must do
           it explicitly. *)
        let config =
          {
            config with
            Sender.rto_init = config.Sender.rto_init + Time.us (137 * i);
            rto_max = config.Sender.rto_max + Time.us (613 * i);
          }
        in
        Transport.connect_via topo
          ~name:(Printf.sprintf "cc%d" i)
          ~config ~src:(i + 1) ~dst:0
          ~on_state:(fun st ->
            if st = Sender.Finished then
              finish_times.(i) <- Some (Engine.now eng))
          ~deliver:(fun b -> Buffer.add_bytes sinks.(i) b)
          ())
  in
  (* Optional fault plan: host-link faults ride the receiver's downlink
     (every stream crosses it), fabric faults (port flaps) the switch. *)
  let injectors =
    match plan with
    | None -> []
    | Some p ->
        let sw = topo.Network.switches.(0) in
        let down = topo.Network.endpoints.(0).Network.from_fabric in
        [
          `Link (Injector.inject eng ~plan:p ~link:down ());
          `Fabric
            (Injector.inject_fabric eng ~plan:p ~switch:sw
               ~trunks:topo.Network.trunks ());
        ]
  in
  ignore injectors;
  (* Stagger the starts: simultaneous senders would synchronize their
     slow-start bursts and retransmission timers (everyone overflows the
     queue, everyone times out together, everyone collides again), which
     no real incast exhibits past the first RTT. A seeded jitter breaks
     the phase; after that, ack clocking keeps the senders interleaved. *)
  let jitter = Rng.create ~seed:(0x57a6_6e2d lxor seed) in
  Array.iteri
    (fun i conn ->
      let at = Time.us ((i * 400) + Rng.int jitter 300) in
      ignore
        (Engine.schedule_at eng ~time:at (fun () ->
             Transport.send conn
               (Fault_soak.fill_pattern ~msg:i ~len:bytes_per_sender);
             Transport.close conn)))
    conns;
  let terminal () =
    Array.for_all (fun c -> Transport.state c <> Sender.Active) conns
  in
  run_until_done eng ~cap ~terminal;
  (* Grace: let acks, sweeps and pumps quiesce before auditing. *)
  Engine.run ~until:(Engine.now eng + Time.ms 10) eng;
  let sw = topo.Network.switches.(0) in
  let st = Switch.stats sw in
  let sum f =
    Array.fold_left (fun a c -> a + f (Sender.stats (Transport.sender c))) 0
      conns
  in
  let byte_exact =
    Array.for_all
      (fun i ->
        Bytes.equal (Buffer.to_bytes sinks.(i))
          (Fault_soak.fill_pattern ~msg:i ~len:bytes_per_sender))
      (Array.init senders (fun i -> i))
  in
  let finished =
    Array.fold_left
      (fun a c -> if Transport.state c = Sender.Finished then a + 1 else a)
      0 conns
  in
  let failed =
    Array.fold_left
      (fun a c ->
        match Transport.state c with Sender.Failed _ -> a + 1 | _ -> a)
      0 conns
  in
  let completion =
    Array.fold_left
      (fun acc ft ->
        match (acc, ft) with
        | Some a, Some b -> Some (max a b)
        | _ -> None)
      (Some Time.zero) finish_times
  in
  let violations =
    Network.audit topo
    @ List.concat_map Transport.invariants (Array.to_list conns)
  in
  let o =
    {
      senders;
      queue_cells;
      mark_threshold;
      offered_bytes = senders * bytes_per_sender;
      delivered_bytes =
        Array.fold_left (fun a b -> a + Buffer.length b) 0 sinks;
      byte_exact;
      finished;
      failed;
      completion;
      unique_sent = sum (fun s -> s.Sender.unique_sent);
      retransmits = sum (fun s -> s.Sender.retransmits);
      retransmit_bytes = sum (fun s -> s.Sender.retransmit_bytes);
      timeouts = sum (fun s -> s.Sender.timeouts);
      fast_retransmits = sum (fun s -> s.Sender.fast_retransmits);
      ece_acks = sum (fun s -> s.Sender.ece_acks);
      marked_cells = st.Switch.marked;
      marked_pdus =
        Array.fold_left
          (fun a c ->
            a
            + (Osiris_transport.Receiver.stats (Transport.receiver c))
                .Osiris_transport.Receiver.marked_pdus)
          0 conns;
      switch_dropped =
        st.Switch.dropped_overflow + st.Switch.dropped_no_route
        + st.Switch.dropped_epd;
      host_dropped =
        List.fold_left
          (fun a i ->
            let h = Network.host topo i in
            a
            + (Osiris_board.Board.stats h.Host.board)
                .Osiris_board.Board.pdus_dropped_no_buffer)
          0
          (List.init (Network.nhosts topo) Fun.id);
      cells_in = st.Switch.cells_in;
      max_occupancy = st.Switch.max_occupancy;
      violations;
    }
  in
  { o with violations = o.violations @ accounting ~fault_free:(plan = None) o }

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
  match (baseline.completion, o.completion) with
  | Some t0, Some t -> float_of_int t0 /. float_of_int (max 1 t)
  | _ -> 0.0

let check_figure ~baseline ~marked outs =
  let errs = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun o ->
      List.iter (fun v -> bad "q=%d: %s" o.queue_cells v) o.violations)
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
  (let werrs = ref [] in
   List.iter
     (fun v -> werrs := Printf.sprintf "64 senders: %s" v :: !werrs)
     wide.violations;
   if not wide.byte_exact then
     werrs := "64 senders: delivered streams not byte-exact" :: !werrs;
   if wide.finished <> wide.senders then
     werrs :=
       Printf.sprintf "64 senders: %d of %d finished" wide.finished
         wide.senders
       :: !werrs;
   match check_figure ~baseline ~marked plain @ List.rev !werrs with
   | [] -> ()
   | errs -> failwith ("congestion: " ^ String.concat "; " errs));
  let pt outs f = List.map (fun o -> (o.queue_cells, f o)) outs in
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
          points =
            pt plain (fun o ->
                match o.completion with
                | Some t -> Time.to_float_us t /. 1000.
                | None -> Float.nan);
        };
        {
          Report.label = "completion ms (marking on)";
          points =
            pt marked (fun o ->
                match o.completion with
                | Some t -> Time.to_float_us t /. 1000.
                | None -> Float.nan);
        };
        {
          Report.label = "goodput ratio vs lossless (marking on)";
          points = pt marked (goodput_ratio ~baseline);
        };
        {
          Report.label = "switch cell drops (marking on)";
          points = pt marked (fun o -> float_of_int o.switch_dropped);
        };
        {
          Report.label = "retransmitted bytes (64 senders, marking on)";
          points = [ (wide.queue_cells, float_of_int wide.retransmit_bytes) ];
        };
        {
          Report.label = "completion ms (64 senders, marking on)";
          points =
            [
              ( wide.queue_cells,
                match wide.completion with
                | Some t -> Time.to_float_us t /. 1000.
                | None -> Float.nan );
            ];
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
  let w = { Plan.w_from = from; w_until = min (from + len) (horizon * 9 / 10) } in
  let hp = Time.us (50 + Rng.int rng 400) in
  {
    base with
    Plan.port_flap = [ (port, w, hp) ];
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
      List.map (fun v -> tag ^ ": " ^ v) o.violations
      @ (if o.finished <> o.senders then
           [
             Printf.sprintf "%s: %d of %d streams finished (%d failed)" tag
               o.finished o.senders o.failed;
           ]
         else [])
      @
      if o.retransmit_bytes > 2 * o.offered_bytes then
        [
          Printf.sprintf "%s: unbounded retransmission (%d B for %d offered)"
            tag o.retransmit_bytes o.offered_bytes;
        ]
      else [])
    results
