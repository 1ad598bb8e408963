module Engine = Osiris_sim.Engine
module Time = Osiris_sim.Time
module Trace = Osiris_obs.Trace

type config = {
  seg_size : int;
  window : int;
  init_cwnd : int;
  rto_init : Time.t;
  rto_min : Time.t;
  rto_max : Time.t;
  max_retries : int;
  dup_ack_threshold : int;
  ecn : bool;
}

let default_config =
  {
    seg_size = 1024;
    window = 32;
    init_cwnd = 2;
    rto_init = Time.ms 1;
    rto_min = Time.us 200;
    rto_max = Time.ms 100;
    max_retries = 10;
    dup_ack_threshold = 3;
    ecn = true;
  }

type state = Active | Finished | Failed of string

type seg = {
  mutable payload : Bytes.t;
  len : int; (* payload length, kept after the acked payload is dropped *)
  mutable tx_count : int;
  mutable sacked : bool;
  mutable last_tx : Time.t;
}

type stats = {
  mutable offered_bytes : int;
  mutable acked_bytes : int;
  mutable unique_sent : int;
  mutable retransmits : int;
  mutable retransmit_bytes : int;
  mutable transmissions : int;
  mutable fast_retransmits : int;
  mutable tail_probes : int;
  mutable timeouts : int;
  mutable acks_received : int;
  mutable dup_acks : int;
  mutable ece_acks : int;
  mutable cwnd_cuts : int;
  mutable rtt_samples : int;
}

(* Congestion state lives in its own all-float record: a float field in
   the mixed record [t] would be boxed, costing one minor allocation per
   store — and [on_ack] stores cwnd on every ack. An all-float record is
   flat (unboxed fields), so the per-ack window arithmetic allocates
   nothing. Numerics are bit-identical: same IEEE doubles, one less
   indirection. *)
type cc = { mutable cwnd : float; mutable ssthresh : float (* segments *) }

type t = {
  eng : Engine.t;
  cfg : config;
  name : string;
  tx : seq:int -> retransmit:bool -> Bytes.t -> unit;
  on_state : state -> unit;
  on_timeout : unit -> unit;
  rto : Rto.t;
  mutable segs : seg option array;
  mutable nsegs : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable sacked_count : int; (* sacked segments in [snd_una, snd_nxt) *)
  cc : cc;
  mutable dupacks : int;
  mutable recover : int; (* NewReno recovery fence: snd_nxt at last cut *)
  mutable ece_hold_until : Time.t; (* no second ECE cut before this *)
  mutable rto_count : int; (* consecutive timeouts without progress *)
  mutable timer : Engine.handle option;
  mutable timer_armed : bool;
  mutable probe : Engine.handle option;
  mutable probe_armed : bool;
  mutable probe_pending : bool;
      (* a tail probe went out and no cumulative ack has advanced since:
         don't probe again, let the (backed-off) RTO be the backstop *)
  mutable closed : bool;
  mutable state : state;
  stats : stats;
}

let state t = t.state
let stats t = t.stats
let cwnd t = t.cc.cwnd
let snd_una t = t.snd_una

let seg t q =
  match t.segs.(q) with
  | Some s -> s
  | None ->
      (invalid_arg (Printf.sprintf "Sender.%s: no segment %d" t.name q)
      [@osiris.alloc_ok "cold error path: raises, never returns"])

(* Timer management. A cancelled handle stays in the engine's queue until
   drained, so [Engine.reschedule] cannot re-arm it; each arming schedules
   a fresh event and [disarm] cancels the pending one. *)
let rec arm t =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    (t.timer <-
       Some
         (Engine.schedule t.eng ~delay:(Rto.current t.rto)
            (fun () -> on_rto t))
    [@osiris.alloc_ok
      "arming allocates closure + handle + option: a cancelled handle \
       stays queued until drained, so the engine's reschedule cannot \
       reuse it — see the comment above; bounded by one arming per ack"])
  end

and restart t =
  disarm t;
  arm t

and disarm t =
  if t.timer_armed then begin
    t.timer_armed <- false;
    match t.timer with
    | Some h ->
        Engine.cancel t.eng h;
        t.timer <- None
    | None -> ()
  end

(* Tail-loss probe: with a window of one or two segments, losing the
   whole window leaves nothing in flight to draw a selective ack, so
   fast retransmission can never trigger and the connection sits out a
   full (often backed-off) RTO — the dominant cost of operating against
   a queue holding barely one PDU. After ~two round trips of silence,
   resend the highest unsacked outstanding segment without touching
   cwnd, ssthresh or the timer backoff: if it lands, its ack (or the
   sack it draws above a surviving hole) puts recovery back on the fast
   path; if the silence was real persistent congestion, the RTO still
   fires as before. One probe per silence episode. *)
and probe_timeout t =
  (* Three quarters of the adaptive RTO: anything keyed to srtt alone
     fires spuriously while the bottleneck queue is growing (the RTT a
     probe must outwait is the one the acks will have, not the one the
     samples had), and every spurious probe is a wasted retransmission.
     The RTO already carries the variance margin; the probe just
     undercuts it enough to win the race when the silence is real. *)
  Rto.current t.rto * 3 / 4

and arm_probe t =
  disarm_probe t;
  (* Only worth arming when the pipe is too thin for sack-driven
     recovery: with more unsacked segments in flight than the
     duplicate-ack threshold, any real loss will draw enough acks to
     trigger fast retransmission, and a probe could only fire
     spuriously (e.g. while a deep queue inflates the RTT faster than
     the estimator tracks it). *)
  if
    t.state = Active
    && (not t.probe_pending)
    && t.snd_una < t.snd_nxt
    && t.snd_nxt - t.snd_una - t.sacked_count <= t.cfg.dup_ack_threshold
  then begin
    t.probe_armed <- true;
    (t.probe <-
       Some
         (Engine.schedule t.eng ~delay:(probe_timeout t)
            (fun () -> on_probe t))
    [@osiris.alloc_ok
      "probe arming: closure + handle + option, same engine constraint \
       as the RTO timer; only taken on thin-pipe flows"])
  end

and disarm_probe t =
  if t.probe_armed then begin
    t.probe_armed <- false;
    match t.probe with
    | Some h ->
        Engine.cancel t.eng h;
        t.probe <- None
    | None -> ()
  end

and on_probe t =
  t.probe_armed <- false;
  if t.state = Active && t.snd_una < t.snd_nxt then begin
    let q = ref (t.snd_nxt - 1) in
    while !q > t.snd_una && (seg t !q).sacked do
      decr q
    done;
    if not (seg t !q).sacked then begin
      t.probe_pending <- true;
      t.stats.tail_probes <- t.stats.tail_probes + 1;
      Trace.emitf Trace.Protocol ~now:(Engine.now t.eng)
        "%s: tail-loss probe, seg %d" t.name !q;
      transmit t !q ~retransmit:true
    end
  end

and transmit t q ~retransmit =
  let s = seg t q in
  s.tx_count <- s.tx_count + 1;
  s.last_tx <- Engine.now t.eng;
  t.stats.transmissions <- t.stats.transmissions + 1;
  if retransmit then begin
    t.stats.retransmits <- t.stats.retransmits + 1;
    t.stats.retransmit_bytes <- t.stats.retransmit_bytes + s.len
  end
  else t.stats.unique_sent <- t.stats.unique_sent + 1;
  (t.tx ~seq:q ~retransmit s.payload
  [@osiris.alloc_ok
    "handoff to the wired transmit callback: what the datapath below \
     allocates is its own hot-set entry's business"])

(* Fill the window: transmit new segments while the flow-control window
   and the congestion window both have room. Tail recursion instead of a
   [ref] flag: [ref] allocates a block per call and pump runs on every
   ack (R5-hot via [on_ack]). *)
and pump t = if t.state = Active then pump_loop t

and pump_loop t =
  let pipe = t.snd_nxt - t.snd_una - t.sacked_count in
  if
    t.snd_nxt < t.nsegs
    && t.snd_nxt - t.snd_una < t.cfg.window
    && float_of_int pipe < t.cc.cwnd
  then begin
    transmit t t.snd_nxt ~retransmit:false;
    t.snd_nxt <- t.snd_nxt + 1;
    arm t;
    arm_probe t;
    pump_loop t
  end

and finish t =
  disarm t;
  disarm_probe t;
  t.state <- Finished;
  ((Trace.emitf Trace.Protocol ~now:(Engine.now t.eng)
      "%s: finished (%d segs)" t.name t.nsegs;
    t.on_state Finished)
  [@osiris.alloc_ok
    "connection teardown: runs once per connection, never per ack"])

and fail t reason =
  disarm t;
  disarm_probe t;
  let st = Failed reason in
  t.state <- st;
  Trace.emitf Trace.Protocol ~now:(Engine.now t.eng) "%s: FAILED: %s" t.name
    reason;
  t.on_state st

(* Retransmission timeout: multiplicative decrease to one segment,
   back off the timer, resend the oldest unacked segment. [rto_count]
   only resets when the cumulative ack advances, so [max_retries]
   consecutive fruitless timeouts abort the connection. *)
and on_rto t =
  t.timer_armed <- false;
  disarm_probe t;
  if t.state = Active && t.snd_una < t.snd_nxt then begin
    t.rto_count <- t.rto_count + 1;
    t.stats.timeouts <- t.stats.timeouts + 1;
    t.on_timeout ();
    if t.rto_count > t.cfg.max_retries then
      fail t
        (Printf.sprintf "no progress after %d retransmission timeouts"
           t.cfg.max_retries)
    else begin
      let pipe = float_of_int (t.snd_nxt - t.snd_una - t.sacked_count) in
      t.cc.ssthresh <- Float.max 2.0 (pipe /. 2.0);
      t.cc.cwnd <- 1.0;
      t.stats.cwnd_cuts <- t.stats.cwnd_cuts + 1;
      Rto.backoff t.rto;
      t.recover <- t.snd_nxt;
      t.dupacks <- 0;
      transmit t t.snd_una ~retransmit:true;
      arm t
    end
  end

(* Multiplicative decrease. Loss recovery restarts from [ssthresh]
   (NewReno), but the window itself may fall to one segment: with a
   shallow bottleneck queue and many senders, even one segment per
   sender can overfill the fabric, and a floor of two would pin the
   aggregate above the queue capacity no matter how hard ECN pushes
   back. *)
let cut_cwnd t =
  t.cc.ssthresh <- Float.max 2.0 (t.cc.cwnd /. 2.0);
  t.cc.cwnd <- Float.max 1.0 (t.cc.cwnd /. 2.0);
  t.stats.cwnd_cuts <- t.stats.cwnd_cuts + 1

let create eng ?(name = "snd") ?(config = default_config)
    ?(on_state = fun _ -> ()) ?(on_timeout = fun () -> ()) ~tx () =
  if config.seg_size < 1 then invalid_arg "Sender.create: seg_size < 1";
  if config.window < 1 then invalid_arg "Sender.create: window < 1";
  if config.init_cwnd < 1 || config.init_cwnd > config.window then
    invalid_arg "Sender.create: init_cwnd out of range";
  if config.dup_ack_threshold < 1 then
    invalid_arg "Sender.create: dup_ack_threshold < 1";
  if config.max_retries < 1 then invalid_arg "Sender.create: max_retries < 1";
  {
    eng;
    cfg = config;
    name;
    tx;
    on_state;
    on_timeout;
    rto = Rto.create ~init:config.rto_init ~min:config.rto_min
        ~max:config.rto_max;
    segs = Array.make 64 None;
    nsegs = 0;
    snd_una = 0;
    snd_nxt = 0;
    sacked_count = 0;
    cc =
      {
        cwnd = float_of_int config.init_cwnd;
        ssthresh = float_of_int config.window;
      };
    dupacks = 0;
    recover = 0;
    ece_hold_until = Time.zero;
    rto_count = 0;
    timer = None;
    timer_armed = false;
    probe = None;
    probe_armed = false;
    probe_pending = false;
    closed = false;
    state = Active;
    stats =
      {
        offered_bytes = 0;
        acked_bytes = 0;
        unique_sent = 0;
        retransmits = 0;
        retransmit_bytes = 0;
        transmissions = 0;
        fast_retransmits = 0;
        tail_probes = 0;
        timeouts = 0;
        acks_received = 0;
        dup_acks = 0;
        ece_acks = 0;
        cwnd_cuts = 0;
        rtt_samples = 0;
      };
  }

let add_seg t payload =
  if t.nsegs = Array.length t.segs then begin
    let bigger = Array.make (2 * t.nsegs) None in
    Array.blit t.segs 0 bigger 0 t.nsegs;
    t.segs <- bigger
  end;
  t.segs.(t.nsegs) <-
    Some
      {
        payload;
        len = Bytes.length payload;
        tx_count = 0;
        sacked = false;
        last_tx = Time.zero;
      };
  t.nsegs <- t.nsegs + 1

let offer t data =
  if t.closed then invalid_arg "Sender.offer: already closed";
  if t.state <> Active then invalid_arg "Sender.offer: not active";
  let len = Bytes.length data in
  t.stats.offered_bytes <- t.stats.offered_bytes + len;
  let off = ref 0 in
  while !off < len do
    let n = Int.min t.cfg.seg_size (len - !off) in
    add_seg t (Bytes.sub data !off n);
    off := !off + n
  done;
  pump t

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.state = Active && t.snd_una >= t.nsegs then finish t
  end

(* Acknowledgement processing: cumulative advance (with Karn-filtered RTT
   sampling and additive increase), SACK bookkeeping, once-per-RTT ECE
   multiplicative decrease, and NewReno-fenced fast retransmit driven by
   either a duplicate-ack run or selective acks above the hole. *)
let on_ack t ~ack ~sack ~ece =
  if t.state = Active then begin
    t.stats.acks_received <- t.stats.acks_received + 1;
    if ece then begin
      t.stats.ece_acks <- t.stats.ece_acks + 1;
      if t.cfg.ecn && Engine.now t.eng >= t.ece_hold_until then begin
        cut_cwnd t;
        let hold =
          match
            (Rto.srtt t.rto
            [@osiris.alloc_ok
              "option box on the once-per-RTT ECE cut path, not per ack"])
          with
          | Some s -> s
          | None -> t.cfg.rto_init
        in
        t.ece_hold_until <- Engine.now t.eng + hold
      end
    end;
    let ack = Int.min ack t.snd_nxt in
    if ack > t.snd_una then begin
      (* Karn: sample only segments transmitted exactly once. *)
      (match t.segs.(ack - 1) with
      | Some s when s.tx_count = 1 ->
          Rto.sample t.rto (Engine.now t.eng - s.last_tx);
          t.stats.rtt_samples <- t.stats.rtt_samples + 1
      | _ -> ());
      (* [newly] is just the cumulative advance — no [ref] counter (a
         [ref] is a heap block, and this runs per ack). *)
      let newly = ack - t.snd_una in
      for q = t.snd_una to ack - 1 do
        let s = seg t q in
        if s.sacked then begin
          s.sacked <- false;
          t.sacked_count <- t.sacked_count - 1
        end;
        t.stats.acked_bytes <- t.stats.acked_bytes + s.len;
        s.payload <- Bytes.empty
      done;
      t.snd_una <- ack;
      t.dupacks <- 0;
      t.rto_count <- 0;
      t.probe_pending <- false;
      (* No growth inside an ECE hold window: the fabric signalled
         congestion within the last round-trip, and against a queue of a
         dozen cells the overshoot from even one extra segment per
         sender is what tips marking into loss. Probing resumes after a
         mark-free round-trip. *)
      if t.cfg.ecn && Engine.now t.eng < t.ece_hold_until then ()
      else begin
        if t.cc.cwnd < t.cc.ssthresh then
          (* slow start *)
          t.cc.cwnd <- Float.min (t.cc.cwnd +. float_of_int newly) t.cc.ssthresh
        else
          (* congestion avoidance: ~one segment per window per RTT *)
          t.cc.cwnd <- t.cc.cwnd +. (float_of_int newly /. t.cc.cwnd)
      end;
      t.cc.cwnd <- Float.min t.cc.cwnd (float_of_int t.cfg.window);
      (* NewReno partial ack: an advance that stops short of [recover]
         exposes the next hole of the same loss episode. Resend it now —
         waiting would recover a burst loss one segment per (backed-off)
         timeout, since nothing behind a dead window ever produces a
         duplicate ack. No further cwnd cut: one episode, one cut. *)
      if
        t.snd_una < t.recover
        && t.snd_una < t.snd_nxt
        && not (seg t t.snd_una).sacked
      then begin
        transmit t t.snd_una ~retransmit:true;
        restart t
      end
    end
    else if ack = t.snd_una && t.snd_una < t.snd_nxt then begin
      t.dupacks <- t.dupacks + 1;
      t.stats.dup_acks <- t.stats.dup_acks + 1
    end;
    for i = 0 to 31 do
      if sack land (1 lsl i) <> 0 then begin
        let q = ack + 1 + i in
        if q >= t.snd_una && q < t.snd_nxt then begin
          let s = seg t q in
          if not s.sacked then begin
            s.sacked <- true;
            t.sacked_count <- t.sacked_count + 1
          end
        end
      end
    done;
    if t.state = Active then begin
      let hole_sacked =
        t.snd_una < t.snd_nxt && (seg t t.snd_una).sacked
      in
      (* Early retransmit (RFC 5827 in spirit): when fewer segments are
         outstanding than the duplicate-ack threshold needs, a window's
         worth of duplicates can never accumulate and every small-window
         loss would wait out a full RTO. Shrink the threshold to
         outstanding - 1 (floor one). The fabric preserves order within
         a VC, so even a single ack above the hole is proof of loss, not
         reordering. *)
      let dup_thr =
        Int.min t.cfg.dup_ack_threshold (Int.max 1 (t.snd_nxt - t.snd_una - 1))
      in
      if
        t.snd_una < t.snd_nxt
        && (not hole_sacked)
        && t.snd_una >= t.recover
        && (t.dupacks >= dup_thr || t.sacked_count >= dup_thr)
      then begin
        t.stats.fast_retransmits <- t.stats.fast_retransmits + 1;
        cut_cwnd t;
        t.recover <- t.snd_nxt;
        t.dupacks <- 0;
        transmit t t.snd_una ~retransmit:true;
        restart t
      end;
      if t.closed && t.snd_una >= t.nsegs then finish t
      else begin
        if t.snd_una = t.snd_nxt then begin
          disarm t;
          disarm_probe t
        end
        else begin
          restart t;
          arm_probe t
        end;
        pump t
      end
    end
  end

let invariants t =
  let errs = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if not (0 <= t.snd_una && t.snd_una <= t.snd_nxt && t.snd_nxt <= t.nsegs)
  then
    bad "%s: sequence order broken: una=%d nxt=%d nsegs=%d" t.name t.snd_una
      t.snd_nxt t.nsegs;
  if t.snd_nxt - t.snd_una > t.cfg.window then
    bad "%s: outstanding %d exceeds window %d" t.name (t.snd_nxt - t.snd_una)
      t.cfg.window;
  let sacked = ref 0 in
  for q = t.snd_una to t.snd_nxt - 1 do
    match t.segs.(q) with
    | Some s -> if s.sacked then incr sacked
    | None -> bad "%s: segment %d in window has no record" t.name q
  done;
  if !sacked <> t.sacked_count then
    bad "%s: sacked_count=%d but %d segments are sacked" t.name t.sacked_count
      !sacked;
  if t.stats.transmissions <> t.stats.unique_sent + t.stats.retransmits then
    bad "%s: transmissions=%d <> unique=%d + retransmits=%d" t.name
      t.stats.transmissions t.stats.unique_sent t.stats.retransmits;
  if t.stats.unique_sent <> t.snd_nxt then
    bad "%s: unique_sent=%d <> snd_nxt=%d" t.name t.stats.unique_sent t.snd_nxt;
  let unacked = ref 0 in
  for q = t.snd_una to t.nsegs - 1 do
    match t.segs.(q) with
    | Some s -> unacked := !unacked + s.len
    | None -> bad "%s: segment %d has no record" t.name q
  done;
  if t.stats.acked_bytes + !unacked <> t.stats.offered_bytes then
    bad "%s: byte conservation: acked=%d + unacked=%d <> offered=%d" t.name
      t.stats.acked_bytes !unacked t.stats.offered_bytes;
  (match t.state with
  | Finished ->
      if t.snd_una <> t.nsegs then
        bad "%s: Finished with una=%d < nsegs=%d" t.name t.snd_una t.nsegs;
      if t.timer_armed || t.probe_armed then
        bad "%s: Finished with a timer armed" t.name
  | Failed _ ->
      if t.timer_armed || t.probe_armed then
        bad "%s: Failed with a timer armed" t.name
  | Active ->
      if t.cc.cwnd < 1.0 then bad "%s: cwnd %.2f < 1" t.name t.cc.cwnd;
      if t.snd_una < t.snd_nxt && not t.timer_armed then
        bad "%s: data outstanding but no timer armed" t.name;
      if t.rto_count > t.cfg.max_retries then
        bad "%s: rto_count %d exceeds max_retries while Active" t.name
          t.rto_count);
  List.rev !errs
