open Osiris_sim
module Atm_link = Osiris_link.Atm_link
module Board = Osiris_board.Board
module Switch = Osiris_switch.Switch
module Rng = Osiris_util.Rng
module Metrics = Osiris_obs.Metrics
module Trace = Osiris_obs.Trace

type t = {
  eng : Engine.t;
  rng : Rng.t; (* interrupt-loss draws only *)
  plan : Plan.t;
  link : Atm_link.t;
  board : Board.t option;
  mutable irq_prob : float;
  irq_prob_ch : float array;
      (* per-channel interrupt-loss override, indexed by channel id
         (length = Board.n_channels; empty without a board). An
         array, not an assoc list: the lookup runs on every interrupt
         draw, and plans can target any of the 16 channels. *)
  mutable armed : bool;
  m_events : Metrics.counter;
  m_irq_draws : Metrics.counter;
}

(* Re-derive every knob from the plan at [now] and push it into the
   simulation. Idempotent, so overlapping windows and replayed boundaries
   are harmless. *)
let apply t now =
  let k = Plan.knobs_at t.plan now in
  Atm_link.set_drop_prob t.link k.Plan.k_drop;
  Atm_link.set_corrupt_prob t.link k.Plan.k_corrupt;
  Atm_link.set_corrupt_header_prob t.link k.Plan.k_header;
  Atm_link.set_dup_prob t.link k.Plan.k_dup;
  for l = 0 to (Atm_link.config t.link).Atm_link.nlinks - 1 do
    Atm_link.set_link_state t.link ~link:l (not (List.mem l k.Plan.k_down))
  done;
  Atm_link.set_rx_fifo_limit t.link
    (Option.value k.Plan.k_squeeze ~default:Atm_link.rx_fifo_cells);
  t.irq_prob <- k.Plan.k_irq_loss;
  Array.fill t.irq_prob_ch 0 (Array.length t.irq_prob_ch) 0.0;
  List.iter
    (fun (ch, p) ->
      if ch >= 0 && ch < Array.length t.irq_prob_ch then
        t.irq_prob_ch.(ch) <- p)
    k.Plan.k_irq_loss_ch;
  match t.board with
  | None -> ()
  | Some b ->
      for ch = 0 to Board.n_channels - 1 do
        Board.set_free_gate b ~ch (List.mem ch k.Plan.k_free_starve)
      done

(* Effective interrupt-loss probability for one receive channel: the
   harsher of the global burst and the channel-targeted one. *)
let irq_loss_prob t ch =
  if ch >= 0 && ch < Array.length t.irq_prob_ch then
    Float.max t.irq_prob t.irq_prob_ch.(ch)
  else t.irq_prob

let inject eng ~plan ~link ?board () =
  let n_ch = if Option.is_some board then Board.n_channels else 0 in
  let t =
    {
      eng;
      rng = Rng.create ~seed:(plan.Plan.seed lxor 0x5eed_f417);
      plan;
      link;
      board;
      irq_prob = 0.0;
      irq_prob_ch = Array.make n_ch 0.0;
      armed = true;
      m_events = Metrics.counter "fault.plan_events";
      m_irq_draws = Metrics.counter "fault.irq_loss_draws";
    }
  in
  (match board with
  | None -> ()
  | Some b ->
      Board.set_irq_filter b
        (Some
           (fun reason ->
             match reason with
             | Board.Rx_nonempty ch when t.armed -> (
                 match irq_loss_prob t ch with
                 | p when p > 0.0 ->
                     Metrics.incr t.m_irq_draws;
                     not (Rng.bernoulli t.rng p)
                 | _ -> true)
             | _ -> true)));
  Trace.emitf Trace.Fault ~now:(Engine.now eng) "inject plan [%s]"
    (Plan.to_string plan);
  let now = Engine.now eng in
  List.iter
    (fun time ->
      if time > now then
        ignore
          (Engine.schedule_at eng ~time (fun () ->
               if t.armed then begin
                 Metrics.incr t.m_events;
                 Trace.emitf Trace.Fault ~now:time "plan boundary";
                 apply t time
               end)))
    (Plan.boundaries plan);
  apply t now;
  t

let disarm t =
  if t.armed then begin
    t.armed <- false;
    t.irq_prob <- 0.0;
    Array.fill t.irq_prob_ch 0 (Array.length t.irq_prob_ch) 0.0;
    Atm_link.set_drop_prob t.link 0.0;
    Atm_link.set_corrupt_prob t.link 0.0;
    Atm_link.set_corrupt_header_prob t.link 0.0;
    Atm_link.set_dup_prob t.link 0.0;
    Atm_link.set_rx_fifo_limit t.link Atm_link.rx_fifo_cells;
    for l = 0 to (Atm_link.config t.link).Atm_link.nlinks - 1 do
      Atm_link.set_link_state t.link ~link:l true
    done;
    (match t.board with
    | None -> ()
    | Some b ->
        for ch = 0 to Board.n_channels - 1 do
          Board.set_free_gate b ~ch false
        done);
    Trace.emitf Trace.Fault ~now:(Engine.now t.eng) "injector disarmed"
  end

(* ------------------------------------------------------------------ *)
(* Topology faults: the dimensions that address a generated fabric as a
   whole — [swflap#S.P] storms port P of switch S, [trunkdown#T] cuts
   every striped channel of both directed links of trunk T, and
   [trunkloss] raises the drop probability of every trunk link. One
   injector per topology, alongside per-host link injectors. *)

type topo = {
  t_plan : Plan.t;
  t_switches : Switch.t array;
  t_trunks : Atm_link.t array; (* two directed links per trunk, flat *)
  t_events : Metrics.counter;
}

let apply_topology t now =
  let k = Plan.knobs_at t.t_plan now in
  Array.iteri
    (fun s sw ->
      let nports = (Switch.config sw).Switch.nports in
      for p = 0 to nports - 1 do
        Switch.set_port_state sw ~port:p
          (not (List.mem (s, p) k.Plan.k_sw_port_down))
      done)
    t.t_switches;
  Array.iteri
    (fun i link ->
      Atm_link.set_drop_prob link k.Plan.k_trunk_loss;
      let up = not (List.mem (i / 2) k.Plan.k_trunk_down) in
      for l = 0 to (Atm_link.config link).Atm_link.nlinks - 1 do
        Atm_link.set_link_state link ~link:l up
      done)
    t.t_trunks

let inject_topology eng ~plan ~switches ~trunks () =
  let t =
    {
      t_plan = plan;
      t_switches = switches;
      t_trunks = trunks;
      t_events = Metrics.counter "fault.topology_events";
    }
  in
  Trace.emitf Trace.Fault ~now:(Engine.now eng) "inject topology plan [%s]"
    (Plan.to_string plan);
  let now = Engine.now eng in
  List.iter
    (fun time ->
      if time > now then
        ignore
          (Engine.schedule_at eng ~time (fun () ->
               Metrics.incr t.t_events;
               apply_topology t time)))
    (Plan.boundaries plan);
  apply_topology t now;
  t
