(* Engine macro-benchmark: how fast does the event core chew through a
   realistic million-event workload?

   Not a paper figure — a self-measurement, in the spirit of the paper's
   own obsession with keeping the per-cell software path cheap enough to
   track the hardware. Every ROADMAP scale item (hundreds of hosts,
   incast sweeps into the hundreds of senders) is bounded by raw engine
   throughput, so the trajectory must be visible in BENCH.json.

   The workload is the full datapath, not a microloop: several senders
   stream PDUs through the cell switch to one receiver over a star
   topology — segmentation, link striping, switch contention, DMA,
   reassembly, demux — and the engine dispatches a fixed budget of live
   events. The offered load sits below what the receiver drains, and
   the run fails on any dropped cell, any reassembly error or a
   segment that delivers nothing: a speed measured on a collapsed
   workload does not count. The identical seeded workload runs on both
   scheduler backends; any divergence in final clock or traffic
   counters is reported as a violation (the macro-scale companion to
   the test suite's event-for-event differential check). *)

open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Cell = Osiris_atm.Cell
module Switch = Osiris_switch.Switch
module Board = Osiris_board.Board
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux

type outcome = {
  backend : Engine.backend;
  events : int;  (** live events dispatched in the timed segment *)
  wall_s : float;
  cpu_s : float;  (** user CPU time; the rates below use this *)
  events_per_s : float;
  cells_forwarded : int;
  cells_per_s : float;
  bytes_per_s : float;  (** forwarded cell payload bytes per wall second *)
  delivered_pdus : int;
  delivered_bytes : int;
  delivered_kb_per_s : float;
      (** payload KB delivered to the sink per user CPU second, best
          segment: unlike events/s it compares across commits that
          change how much work one event carries *)
  events_per_kb : float;  (** live events per delivered KB, all segments *)
  minor_words_per_kb : float;
      (** minor-heap words per delivered KB, all segments *)
  stalled_segments : int;  (** timed segments that delivered nothing *)
  final_clock : Time.t;
  cells_in : int;
  dropped : int;
  reassembly_errors : int;  (** at the receiver's board *)
  live_words_growth : int;
      (** major-heap words retained across all timed segments of both
          backends (they share the process heap) *)
  minor_words_per_event : float;
      (** minor-heap words allocated per dispatched event, best segment:
          the R5 hot-path allocation lint's rent, in numbers *)
}

(* Retained major-heap words after a full collection: the timed segment
   must not grow this by more than in-flight state — a scheduler that
   pins dead handles (as the first heap did) shows up here. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Generous ceiling for [live_words_growth]: in-flight PDUs, queues and
   warmup-to-steady-state drift are a few hundred kwords; an O(events)
   leak at 1M events is tens of Mwords. *)
let growth_ceiling = 4_000_000

let warmup_events = 20_000

(* One backend's workload, built and warmed up, ready for timed
   segments. Both backends are prepared before either is timed, and
   their segments interleave (wheel, heap, wheel, heap, ...) so that
   machine-load phases — a noisy neighbour, a slow disk sync — hit both
   schedulers alike instead of biasing whichever ran second. *)
type setup = {
  s_backend : Engine.backend;
  s_eng : Engine.t;
  s_stats : Switch.stats;
  s_board : Board.t;  (** the receiver's *)
  s_delivered : int ref;
  s_delivered_bytes : int ref;
}

(* Each sender offers one PDU per [gap], the senders staggered evenly
   across it. The receiving host, not its ~516 Mb/s of striped links,
   is the bottleneck: 4 x 2 KB PDUs every 350 us (~187 Mb/s) still
   arrive intact, every 300 us (~218 Mb/s) the switch port overflows.
   400 us (~164 Mb/s) leaves a margin, so queues reach a steady state
   and every PDU arrives. *)
let gap = Time.us 400

let prepare ~backend ~senders ~msg_size ~seed () =
  let cfg = { Host.default_config with Host.seed = 9000 + seed } in
  let switch = { Switch.default_config with Switch.queue_cells = 128 } in
  let eng, topo =
    Network.star ~backend ~n:(senders + 1) ~config:cfg ~switch
      ~seed:(200 + seed) ()
  in
  let recv = Network.host topo 0 in
  let vcs =
    Array.init senders (fun i -> Network.open_vc topo ~src:(i + 1) ~dst:0)
  in
  let delivered = ref 0 and delivered_bytes = ref 0 in
  Array.iter
    (fun vc ->
      Demux.bind recv.Host.demux ~vci:vc.Network.dst_vci ~name:"speed-sink"
        (fun ~vci:_ m ->
          incr delivered;
          delivered_bytes := !delivered_bytes + Msg.length m;
          Msg.dispose m))
    vcs;
  (* Senders stream forever (the event budget ends the run): one PDU
     every [gap], staggered so instants stay spread. *)
  Array.iteri
    (fun i vc ->
      let sender = Network.host topo (i + 1) in
      Process.spawn eng
        ~name:(Printf.sprintf "speed-tx%d" i)
        (fun () ->
          Process.sleep eng (gap * i / senders);
          let payload = Fault_soak.fill_pattern ~msg:i ~len:msg_size in
          let rec loop () =
            let m = Msg.alloc sender.Host.vs ~len:msg_size () in
            Msg.blit_into m ~off:0 ~src:payload;
            Driver.send sender.Host.driver ~vci:vc.Network.src_vci m;
            Process.sleep eng gap;
            loop ()
          in
          loop ()))
    vcs;
  (* Let the pipeline fill before measuring. *)
  Engine.run ~max_events:warmup_events eng;
  {
    s_backend = backend;
    s_eng = eng;
    s_stats = Switch.stats topo.Network.switches.(0);
    s_board = recv.Host.board;
    s_delivered = delivered;
    s_delivered_bytes = delivered_bytes;
  }

(* One timed segment of [events] live events. Rate over user CPU time,
   not wall time: the workload's effect handlers keep the kernel busy
   mapping fiber stacks, and that system-time component is machine
   noise (it dwarfs user time on some hosts). *)
type segment = {
  cpu : float;  (** user CPU seconds *)
  fwd : int;  (** cells forwarded *)
  kb : float;  (** payload KB delivered to the sink *)
  words : float;  (** minor words allocated *)
}

let segment s ~events =
  let fwd0 = s.s_stats.Switch.forwarded in
  let bytes0 = !(s.s_delivered_bytes) in
  let mw0 = Gc.minor_words () in
  let t0_cpu = (Unix.times ()).Unix.tms_utime in
  Engine.run ~max_events:events s.s_eng;
  let cpu = (Unix.times ()).Unix.tms_utime -. t0_cpu in
  {
    cpu;
    fwd = s.s_stats.Switch.forwarded - fwd0;
    kb = float_of_int (!(s.s_delivered_bytes) - bytes0) /. 1024.;
    words = Gc.minor_words () -. mw0;
  }

(* Rates come from the fastest segment, minor words per event from the
   least-allocating one (allocation is exactly reproducible per
   segment, timing is not), and the per-KB ratios from all segments
   together. *)
let outcome_of s ~events ~wall_s ~segments ~live_words_growth =
  let pick better =
    List.fold_left (fun a b -> if better b a then b else a)
      (List.hd segments) segments
  in
  let best = pick (fun b a -> b.cpu < a.cpu)
  and best_words = pick (fun b a -> b.words < a.words) in
  let total f = List.fold_left (fun a seg -> a +. f seg) 0. segments in
  let kb = total (fun seg -> seg.kb) in
  let per_kb x = if kb > 0. then x /. kb else infinity in
  let cpu = if best.cpu > 0. then best.cpu else 1e-9 in
  let st = s.s_stats in
  {
    backend = s.s_backend;
    events;
    wall_s;
    cpu_s = best.cpu;
    events_per_s = float_of_int events /. cpu;
    cells_forwarded = st.Switch.forwarded;
    cells_per_s = float_of_int best.fwd /. cpu;
    bytes_per_s = float_of_int (best.fwd * Cell.data_size) /. cpu;
    delivered_pdus = !(s.s_delivered);
    delivered_bytes = !(s.s_delivered_bytes);
    delivered_kb_per_s = best.kb /. cpu;
    events_per_kb =
      per_kb (float_of_int (events * List.length segments));
    minor_words_per_kb = per_kb (total (fun seg -> seg.words));
    stalled_segments =
      List.length (List.filter (fun seg -> seg.kb = 0.) segments);
    final_clock = Engine.now s.s_eng;
    cells_in = st.Switch.cells_in;
    dropped = st.Switch.dropped_overflow + st.Switch.dropped_no_route;
    reassembly_errors = (Board.stats s.s_board).Board.reassembly_errors;
    live_words_growth;
    minor_words_per_event = best_words.words /. float_of_int events;
  }

(* The two backends ran the same seeded workload for the same event
   budget: every simulation-side observable must match exactly. *)
let compare_outcomes w h =
  let d name f =
    if f w <> f h then
      [
        Printf.sprintf
          "engine_speed: %s diverges across backends (wheel %d, heap %d)"
          name (f w) (f h);
      ]
    else []
  in
  d "final clock" (fun o -> o.final_clock)
  @ d "cells into the switch" (fun o -> o.cells_in)
  @ d "cells forwarded" (fun o -> o.cells_forwarded)
  @ d "cells dropped" (fun o -> o.dropped)
  @ d "delivered PDUs" (fun o -> o.delivered_pdus)
  @ d "delivered bytes" (fun o -> o.delivered_bytes)
  @ d "reassembly errors" (fun o -> o.reassembly_errors)

(* The workload must run below capacity and deliver: one dropped cell
   means a queue overflowed, and a timed segment that delivered nothing
   measured a stalled datapath. *)
let health_check o =
  let bad cond msg = if cond then [ "engine_speed: " ^ msg ] else [] in
  bad (o.dropped > 0)
    (Printf.sprintf "%d cells dropped at the switch: the offered load \
                     exceeds the receiver's capacity" o.dropped)
  @ bad (o.reassembly_errors > 0)
      (Printf.sprintf "%d reassembly errors at the receiver"
         o.reassembly_errors)
  @ bad (o.stalled_segments > 0)
      (Printf.sprintf "%d timed segments delivered no PDUs"
         o.stalled_segments)

let leak_check o =
  if o.live_words_growth > growth_ceiling then
    [
      Printf.sprintf
        "engine_speed: %d live words retained across the %d-event timed \
         segments (ceiling %d) — a scheduler is pinning dead events"
        o.live_words_growth o.events growth_ceiling;
    ]
  else []

let run ?(events = 1_000_000) ?(senders = 4) ?(msg_size = 2048) ?(seed = 3)
    () =
  let go backend = prepare ~backend ~senders ~msg_size ~seed () in
  let w = go Engine.Timer_wheel in
  let h = go Engine.Binary_heap in
  let base_words = live_words () in
  (* Each backend is rated on its best of [reps] segments — major-GC
     slices land unevenly across segments, and the best one is the
     least polluted look at the scheduler itself. Wall time (all of a
     backend's segments) is still reported. *)
  let reps = 3 in
  let segs_w = ref [] and segs_h = ref [] in
  let wall_w = ref 0. and wall_h = ref 0. in
  let timed s segs wall =
    let t0 = Unix.gettimeofday () in
    segs := segment s ~events :: !segs;
    wall := !wall +. (Unix.gettimeofday () -. t0)
  in
  for _ = 1 to reps do
    timed w segs_w wall_w;
    timed h segs_h wall_h
  done;
  (* Both engines share the process heap, so retention is measured once
     across all segments of both: a scheduler pinning dead events at
     either end shows up (both dispatched the same event count). *)
  let growth = live_words () - base_words in
  let wheel =
    outcome_of w ~events ~wall_s:!wall_w ~segments:!segs_w
      ~live_words_growth:growth
  in
  let heap =
    outcome_of h ~events ~wall_s:!wall_h ~segments:!segs_h
      ~live_words_growth:growth
  in
  let violations =
    compare_outcomes wheel heap @ health_check wheel @ leak_check wheel
  in
  (wheel, heap, violations)

let sweep_events = [ 250_000; 1_000_000 ]

let figure () =
  let outs = List.map (fun n -> run ~events:n ()) sweep_events in
  List.iter
    (fun (_, _, violations) ->
      if violations <> [] then
        failwith
          ("engine_speed: invariant violation: "
          ^ String.concat "; " violations))
    outs;
  let kevents (w, _, _) = w.events / 1000 in
  let pt f = List.map (fun o -> (kevents o, f o)) outs in
  {
    Report.title =
      "engine_speed: live events dispatched and payload delivered per \
       CPU second, 4-sender star-topology datapath workload below the \
       receiver's capacity, timer wheel vs binary heap (identical \
       dispatch order enforced)";
    xlabel = "live events dispatched (thousands)";
    ylabel = "events/s, KB/s, cells/s, bytes/s, words (see series)";
    series =
      [
        { Report.label = "events/s (timer wheel)";
          points = pt (fun (w, _, _) -> w.events_per_s) };
        { Report.label = "events/s (binary heap)";
          points = pt (fun (_, h, _) -> h.events_per_s) };
        (* One event carries more or less work as the simulator
           changes (a sleep that only advances the clock is not an
           event), so delivered payload per CPU second is the rate that
           compares across commits. *)
        { Report.label = "delivered KB per CPU second (timer wheel)";
          points = pt (fun (w, _, _) -> w.delivered_kb_per_s) };
        { Report.label = "delivered KB per CPU second (binary heap)";
          points = pt (fun (_, h, _) -> h.delivered_kb_per_s) };
        { Report.label = "events per delivered KB";
          points = pt (fun (w, _, _) -> w.events_per_kb) };
        { Report.label = "wheel speedup over heap (pct)";
          points =
            pt (fun (w, h, _) ->
                100. *. w.events_per_s /. h.events_per_s) };
        { Report.label = "sim cells forwarded/s (wheel)";
          points = pt (fun (w, _, _) -> w.cells_per_s) };
        { Report.label = "sim payload bytes/s (wheel)";
          points = pt (fun (w, _, _) -> w.bytes_per_s) };
        { Report.label = "live-words growth (both backends)";
          points = pt (fun (w, _, _) -> float_of_int w.live_words_growth) };
        (* The R5 hot-path allocation lint's rent: minor-heap words per
           dispatched event. The backends legitimately differ — the heap
           boxes one entry per add — so both are reported, neither is
           cross-checked. *)
        { Report.label = "minor words per event (timer wheel)";
          points = pt (fun (w, _, _) -> w.minor_words_per_event) };
        { Report.label = "minor words per event (binary heap)";
          points = pt (fun (_, h, _) -> h.minor_words_per_event) };
        { Report.label = "minor words per delivered KB (timer wheel)";
          points = pt (fun (w, _, _) -> w.minor_words_per_kb) };
      ];
    paper_note =
      "self-benchmark, no paper counterpart: the engine must stay fast \
       enough that reproducing the paper's sweeps at testbed scale is \
       cheap; both backends replay the identical seeded workload and \
       must agree on every traffic counter and the final clock, and the \
       run fails on any dropped cell, reassembly error or stalled \
       segment";
  }
