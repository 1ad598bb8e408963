open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Switch = Osiris_switch.Switch
module Builder = Osiris_topo.Builder
module Plan = Osiris_fault.Plan
module Injector = Osiris_fault.Injector
module Rng = Osiris_util.Rng
module Board = Osiris_board.Board
module Sar = Osiris_atm.Sar
module Wire = Osiris_transport.Wire
module Sender = Osiris_transport.Sender
module Spray = Osiris_lb.Spray
module Reps = Osiris_lb.Reps

(* The multipath figure: an 8-pod fat-tree ((k/2)^2 = 16 equal-cost
   inter-pod paths) under a full permutation and an inter-pod incast,
   with the same reliable transport sprayed three ways — pinned to path
   0 (no multipath), static-hash ECMP (one hash-chosen path per
   connection, collisions and all) and REPS (adaptive recycled-entropy
   spraying). The questions: how much of the fabric's cross-section each
   policy realizes (aggregate goodput, p99 flow completion), and how
   fast REPS steers around a trunk that dies mid-run (reroute latency,
   goodput retention) with no failure signal beyond its own acks. *)

(* Hosts as in the congestion sweep: provisioned Alphas scaled to 8 MB
   so 32 of them stand up cheaply, with enough circulating receive
   buffers that the adaptor's no-buffer drop (3.1) never confounds the
   fabric variables under study. *)
let small_machine = Congestion.small_machine

(* Full striped OC-3 everywhere, unlike the congestion sweep's OC-1:
   the reroute bound under test is 100 us simulated, and the spray can
   only steer per PDU — at OC-1 a single 4-cell PDU serializes for
   ~130 us and no per-PDU policy could meet the bound. At line rate a
   PDU hand-off happens every ~11 us, so the bound is ~9 decisions. *)

let transport_config =
  {
    Sender.default_config with
    (* 1 KB segments amortize the adaptor's fixed per-PDU host cost
       (~50 us: interrupts, wiring, protocol processing — the paper's
       whole subject) far enough that one flow sustains ~134 Mb/s of
       the 155.52 line — so a trunk carrying two colliding flows is a
       real bottleneck, which is the phenomenon under study. The
       window is ~4x the ~250 us-RTT bandwidth-delay product. *)
    Sender.seg_size = 1024;
    window = 16;
    init_cwnd = 8;
    rto_init = Time.ms 2;
    rto_min = Time.ms 1;
    rto_max = Time.ms 50;
    max_retries = 20;
    (* Spraying reorders across paths by design (each path queues
       independently); a sack run must mean a hole, not skew, so the
       fast-retransmit threshold sits above the worst equal-cost queue
       differential (a few PDUs) instead of the unipath 3. *)
    dup_ack_threshold = 6;
  }

type workload = Permutation | Incast of int | Single_flow

let workload_name = function
  | Permutation -> "permutation"
  | Incast n -> Printf.sprintf "incast-%d" n
  | Single_flow -> "single-flow"

let mode_name = function
  | Spray.Single -> "single-path"
  | Spray.Static_hash -> "ecmp-static"
  | Spray.Reps -> "reps"

type outcome = {
  mode : Spray.mode;
  workload : workload;
  nconns : int;
  offered_bytes : int;
  delivered_bytes : int;
  byte_exact : bool;
  finished : int;
  failed : int;
  completion : Time.t option;  (** last finish; None if any didn't *)
  fct_p99 : Time.t;  (** 99th-percentile flow completion time *)
  goodput_mbps : float;  (** delivered bytes over the span of the run *)
  retransmits : int;
  timeouts : int;
  recycled_picks : int;  (** REPS picks served from recycled entropy *)
  switch_dropped : int;  (** over every switch in the fabric *)
  reroute : Time.t option;
      (** failure runs: last hand-off to a path crossing the dead trunk,
          counted from the cut instant (zero = nothing sent on it after
          the cut) *)
  violations : string list;
}

(* Pairs of one workload over an [n]-host fabric with [per_pod] hosts
   per pod: the permutation shifts every host one pod forward (all
   traffic inter-pod, one flow per host), the incast points [m] hosts
   from other pods at host 0. *)
let pairs ~nh ~per_pod = function
  | Permutation -> List.init nh (fun i -> (i, (i + per_pod) mod nh))
  | Incast m ->
      if m > nh - per_pod then invalid_arg "Multipath: incast too wide";
      List.init m (fun j -> (per_pod + j, 0))
  | Single_flow -> [ (0, per_pod) ]

(* One transfer over a freshly generated 8-ary fat-tree, one host per
   edge switch. [fail_at] arms a topology injector that cuts one pod-0
   aggregation-to-core trunk — chosen in a core group that path 0 (and
   therefore every ack VC) never crosses — from that instant to the end
   of the run. *)
let run ?(mode = Spray.Reps) ?(workload = Permutation)
    ?(bytes_per_flow = 64 * 1024) ?(config = transport_config) ?fail_at () =
  let k = 8 and queue_cells = 256 and seed = 5 and cap = Time.s 4 in
  let mark_threshold = max 2 (queue_cells / 3) in
  let epd_reserve =
    min queue_cells
      (Sar.cells_per_pdu (config.Sender.seg_size + Wire.data_header_size))
  in
  let switch =
    { Switch.default_config with
      Switch.queue_cells; mark_threshold; epd_reserve }
  in
  let host_cfg =
    {
      Host.default_config with
      Host.seed = 11000 + seed;
      board =
        {
          Host.default_config.Host.board with
          Board.reassembly_timeout = Time.ms 2;
          queue_size = 256;
        };
    }
  in
  let eng, topo =
    Network.fat_tree ~k ~hosts_per_edge:1 ~machine:small_machine
      ~config:host_cfg ~switch ~seed:(700 + seed) ()
  in
  let fabric = Network.fabric topo in
  let nh = Network.nhosts topo in
  let per_pod = k / 2 in
  let flows = Array.of_list (pairs ~nh ~per_pod workload) in
  let n = Array.length flows in
  (* The trunk that dies in failure runs: an aggregation-to-core uplink
     of pod 0 in core group [h/2] — paths through core group 0 (path 0
     of every connection, and thus every ack VC) never cross it, so the
     cut exercises the spray, not the ack channel. *)
  let h = k / 2 in
  let target_trunk = (k * h * h) + (h / 2 * h) + 1 in
  let plan =
    match fail_at with
    | None -> None
    | Some t ->
        Some
          {
            Plan.none with
            Plan.trunk_down = [ (target_trunk, { Plan.w_from = t; w_until = cap }) ];
          }
  in
  let sinks = Array.init n (fun _ -> Buffer.create bytes_per_flow) in
  let finish_times = Array.make n None in
  let start_times = Array.make n Time.zero in
  let conns =
    Array.init n (fun i ->
        let src, dst = flows.(i) in
        let config =
          (* Desync the timer constants per flow, as in the congestion
             sweep: a shared RTO ceiling phase-locks backed-off senders. *)
          {
            config with
            Sender.rto_init = config.Sender.rto_init + Time.us (137 * i);
            rto_max = config.Sender.rto_max + Time.us (613 * i);
          }
        in
        Spray.connect topo
          ~name:(Printf.sprintf "mp%d" i)
          ~config ~mode ~src ~dst
          ~on_state:(fun st ->
            if st = Sender.Finished then
              finish_times.(i) <- Some (Engine.now eng))
          ~deliver:(fun b -> Buffer.add_bytes sinks.(i) b)
          ())
  in
  (match plan with
  | None -> ()
  | Some p ->
      ignore
        (Injector.inject_topology eng ~plan:p ~switches:topo.Network.switches
           ~trunks:topo.Network.trunks ()));
  let jitter = Rng.create ~seed:(0x4af7_11cc lxor seed) in
  Array.iteri
    (fun i conn ->
      let at = Time.us ((i * 10) + Rng.int jitter 30) in
      start_times.(i) <- at;
      ignore
        (Engine.schedule_at eng ~time:at (fun () ->
             Spray.send conn
               (Fault_soak.fill_pattern ~msg:i ~len:bytes_per_flow);
             Spray.close conn)))
    conns;
  let terminal () =
    Array.for_all (fun c -> Spray.state c <> Sender.Active) conns
  in
  Congestion.run_until_done eng ~cap ~terminal;
  Engine.run ~until:(Engine.now eng + Time.ms 10) eng;
  let byte_exact =
    Array.for_all
      (fun i ->
        Bytes.equal (Buffer.to_bytes sinks.(i))
          (Fault_soak.fill_pattern ~msg:i ~len:bytes_per_flow))
      (Array.init n (fun i -> i))
  in
  let finished =
    Array.fold_left
      (fun a c -> if Spray.state c = Sender.Finished then a + 1 else a)
      0 conns
  in
  let failed =
    Array.fold_left
      (fun a c ->
        match Spray.state c with Sender.Failed _ -> a + 1 | _ -> a)
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
  let fcts =
    Array.to_list
      (Array.mapi
         (fun i ft ->
           match ft with
           | Some t -> t - start_times.(i)
           | None -> cap)
         finish_times)
  in
  let fct_p99 =
    let sorted = List.sort compare fcts in
    let idx =
      max 0 (int_of_float (ceil (0.99 *. float_of_int n)) - 1)
    in
    List.nth sorted (min idx (n - 1))
  in
  let delivered_bytes =
    Array.fold_left (fun a b -> a + Buffer.length b) 0 sinks
  in
  let goodput_mbps =
    match completion with
    | Some t when t > Time.zero ->
        Report.mbps ~bytes_count:delivered_bytes ~ns:t
    | _ -> 0.0
  in
  let violations =
    Network.audit topo
    @ List.concat_map Spray.invariants (Array.to_list conns)
  in
  let sum f =
    Array.fold_left (fun a c -> a + f (Sender.stats (Spray.sender c))) 0 conns
  in
  let switch_dropped =
    Array.fold_left
      (fun a sw ->
        let st = Switch.stats sw in
        a + st.Switch.dropped_overflow + st.Switch.dropped_no_route
        + st.Switch.dropped_epd)
      0 topo.Network.switches
  in
  let reroute =
    match fail_at with
    | None -> None
    | Some t_cut ->
        (* How long the spray kept feeding the dead trunk: the latest
           hand-off, over every connection, to a path crossing it. *)
        Some
          (Array.fold_left
             (fun acc c ->
               let mv = Spray.mvc c in
               let worst = ref acc in
               Array.iteri
                 (fun p path ->
                   if Builder.path_uses_trunk fabric path target_trunk then begin
                     let last = Spray.last_send c p in
                     if last > t_cut then worst := max !worst (last - t_cut)
                   end)
                 mv.Network.mv_paths;
               !worst)
             Time.zero conns)
  in
  {
    mode;
    workload;
    nconns = n;
    offered_bytes = n * bytes_per_flow;
    delivered_bytes;
    byte_exact;
    finished;
    failed;
    completion;
    fct_p99;
    goodput_mbps;
    retransmits = sum (fun s -> s.Sender.retransmits);
    timeouts = sum (fun s -> s.Sender.timeouts);
    recycled_picks =
      Array.fold_left
        (fun a c ->
          match Spray.reps c with
          | Some r -> a + (Reps.stats r).Reps.recycled
          | None -> a)
        0 conns;
    switch_dropped;
    reroute;
    violations;
  }

(* ------------------------------------------------------------------ *)
(* The figure and its acceptance bars. *)

let reroute_budget = Time.us 100

let check_figure ~perm ~inc ~fail_free ~failed_run ~reroute_run =
  let errs = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let each o =
    let tag =
      Printf.sprintf "%s/%s" (mode_name o.mode) (workload_name o.workload)
    in
    List.iter (fun v -> bad "%s: %s" tag v) o.violations;
    if not o.byte_exact then bad "%s: delivered streams not byte-exact" tag;
    if o.finished <> o.nconns then
      bad "%s: %d of %d flows finished (%d failed)" tag o.finished o.nconns
        o.failed
  in
  List.iter each (perm @ inc @ [ fail_free; failed_run; reroute_run ]);
  (* REPS must beat the static-hash strawman where it matters: the slow
     tail of the permutation (collision victims). *)
  (match
     ( List.find_opt (fun o -> o.mode = Spray.Reps) perm,
       List.find_opt (fun o -> o.mode = Spray.Static_hash) perm )
   with
  | Some r, Some e ->
      if r.fct_p99 >= e.fct_p99 then
        bad
          "permutation: REPS p99 FCT %.0f us not better than static ECMP \
           %.0f us"
          (Time.to_float_us r.fct_p99)
          (Time.to_float_us e.fct_p99)
  | _ -> bad "permutation: missing REPS or ECMP run");
  (* The reroute bar is measured where the REPS claim applies: a flow
     actively cycling the dead path when it dies. (In the permutation
     run a frozen connection may not sample a path for hundreds of
     microseconds — no end-to-end scheme can learn a path died before
     next touching it, so that run carries the goodput bar instead.) *)
  (match reroute_run.reroute with
  | Some r when r > reroute_budget ->
      bad "reroute: last hand-off to the dead trunk %.1f us after the cut \
           (budget %.0f us)"
        (Time.to_float_us r)
        (Time.to_float_us reroute_budget)
  | Some _ -> ()
  | None -> bad "reroute: no measurement");
  (match reroute_run.reroute with
  | Some r when r = Time.zero ->
      bad "reroute: flow never used the dead trunk after the cut — the \
           cut landed outside the flow or the path set; not a measurement"
  | _ -> ());
  (match (fail_free.completion, failed_run.completion) with
  | Some t0, Some t ->
      let ratio = float_of_int t0 /. float_of_int (max 1 t) in
      if ratio < 0.9 then
        bad "failure: goodput ratio %.2f below 0.9 of failure-free" ratio
  | _ -> bad "failure: a run did not complete");
  List.rev !errs

let modes = [ Spray.Single; Spray.Static_hash; Spray.Reps ]
let mode_x = function
  | Spray.Single -> 0
  | Spray.Static_hash -> 1
  | Spray.Reps -> 2

let figure () =
  let bytes_per_flow = 64 * 1024 in
  let perm =
    List.map (fun mode -> run ~mode ~workload:Permutation ~bytes_per_flow ())
      modes
  in
  let inc =
    List.map
      (fun mode -> run ~mode ~workload:(Incast 8) ~bytes_per_flow ())
      modes
  in
  let fail_free = List.nth perm 2 in
  let failed_run =
    (* Goodput retention: the same permutation with the trunk cut once
       every flow has started, while the late flows are still mid-
       transfer. *)
    run ~mode:Spray.Reps ~workload:Permutation ~bytes_per_flow
      ~fail_at:(Time.us 800) ()
  in
  let reroute_run =
    (* Reroute latency, measured where the claim applies: one saturated
       inter-pod flow that is actively cycling all 16 paths (frozen by
       ~300 us) when the trunk under one of them dies mid-transfer.
       Small segments, so the spray makes a hand-off decision every
       ~10 us (the 100 us budget is ~10 decisions; a 1 KB PDU
       serializes for ~60 us and would leave no room), and a
       fast-retransmit threshold of 4 — with a single flow the
       equal-cost queue differential is nil, so loss detection, which
       paces the reroute, can run that hot without spurious firing. *)
    run ~mode:Spray.Reps ~workload:Single_flow ~bytes_per_flow:(16 * 1024)
      ~config:
        {
          transport_config with
          Sender.seg_size = 128;
          window = 16;
          init_cwnd = 2;
          dup_ack_threshold = 4;
        }
      ~fail_at:(Time.us 500) ()
  in
  (match check_figure ~perm ~inc ~fail_free ~failed_run ~reroute_run with
  | [] -> ()
  | errs -> failwith ("multipath: " ^ String.concat "; " errs));
  let pt outs f = List.map (fun o -> (mode_x o.mode, f o)) outs in
  {
    Report.title =
      "multipath: 8-pod fat-tree (32 hosts, 80 switches, 16 equal-cost \
       paths); permutation + inter-pod incast under single-path vs \
       static-hash ECMP vs REPS spraying, plus a mid-run trunk cut \
       (REPS)";
    xlabel = "path selection (0 = single path, 1 = static-hash ECMP, 2 = REPS)";
    ylabel = "Mb/s / us (see series)";
    series =
      [
        {
          Report.label = "permutation aggregate goodput (Mb/s)";
          points = pt perm (fun o -> o.goodput_mbps);
        };
        {
          Report.label = "permutation p99 FCT (us)";
          points = pt perm (fun o -> Time.to_float_us o.fct_p99);
        };
        {
          Report.label = "incast-8 aggregate goodput (Mb/s)";
          points = pt inc (fun o -> o.goodput_mbps);
        };
        {
          Report.label = "permutation retransmitted segments";
          points = pt perm (fun o -> float_of_int o.retransmits);
        };
        {
          Report.label = "trunk-cut reroute latency (us, REPS, saturated flow)";
          points =
            [
              ( mode_x Spray.Reps,
                match reroute_run.reroute with
                | Some r -> Time.to_float_us r
                | None -> Float.nan );
            ];
        };
        {
          Report.label = "trunk-cut goodput ratio vs failure-free (REPS)";
          points =
            [
              ( mode_x Spray.Reps,
                match (fail_free.completion, failed_run.completion) with
                | Some t0, Some t -> float_of_int t0 /. float_of_int (max 1 t)
                | _ -> Float.nan );
            ];
        };
      ];
    paper_note =
      "testbed extension, not a paper figure: the adaptor stack of the \
       paper scaled up to a Clos fabric. Static-hash ECMP pins each \
       connection to one of the 16 equal-cost paths, so a permutation \
       draws birthday collisions and the victims' completions stretch; \
       REPS sprays per PDU on recycled ack entropy, evening the load \
       (lower p99) and — because dead paths simply stop yielding clean \
       acks — steering off a cut trunk within a ~100 us budget while \
       keeping at least 90% of failure-free goodput.";
  }
