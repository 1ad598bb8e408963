open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Switch = Osiris_switch.Switch
module Board = Osiris_board.Board
module Sar = Osiris_atm.Sar
module Rng = Osiris_util.Rng
module Wire = Osiris_transport.Wire
module Sender = Osiris_transport.Sender
module Spray = Osiris_lb.Spray

(* The fabric runs packet-discard (EPD/PPD) admission sized to the
   transport's data PDU: a congested queue sheds whole PDUs, never
   tails. Without it a shallow queue clips cells out of the middle of
   PDUs, and every clipped PDU costs far more than itself — the
   receiving board's stripe phase stays rotated until a reassembly
   timeout, so the loss of one cell silently CRC-kills the rest of the
   burst and only an RTO recovers. Whole-PDU losses leave the following
   PDUs deliverable, the receiver's sacks expose the hole, and fast
   retransmission repairs it in about a round trip. *)
let switch_config config ~queue_cells ~mark_threshold =
  let epd_reserve =
    Int.min queue_cells
      (Sar.cells_per_pdu (config.Sender.seg_size + Wire.data_header_size))
  in
  { Switch.default_config with Switch.queue_cells; mark_threshold; epd_reserve }

(* The board's reassembly-timeout sweep is load-bearing here: a cell
   dropped mid-PDU leaves the VC's stripe phase rotated, and every later
   PDU on that VC reassembles permuted (a steady CRC-drop trickle that
   no retransmission can outrun). The sweep fires during the sender's
   RTO pause and resets the phase, so the retransmission finds a clean
   reassembler. Keep it well under the RTO floor and well over a PDU's
   intra-queue spread. *)
let host_config ~seed =
  {
    Host.default_config with
    Host.seed;
    board =
      {
        Host.default_config.Host.board with
        Board.reassembly_timeout = Time.ms 2;
        (* Deep enough for a provisioned receive pool (the paper's
           64-slot queues cap circulating buffers below the PDUs that
           many windowed senders keep in flight). *)
        queue_size = 256;
      };
  }

type t = {
  eng : Engine.t;
  topo : Network.topology;
  bytes : int;
  conns : Spray.t array;
  sinks : Buffer.t array;
  starts : Time.t array;
  finishes : Time.t option array;
}

let connect eng topo ~name ~config ~mode ~bytes flows =
  let n = Array.length flows in
  let sinks = Array.init n (fun _ -> Buffer.create bytes) in
  let finishes = Array.make n None in
  let conns =
    Array.mapi
      (fun i (src, dst) ->
        (* Slightly different timer constants per flow: a shared RTO
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
        Spray.connect topo
          ~name:(Printf.sprintf "%s%d" name i)
          ~config ~mode ~src ~dst
          ~on_state:(fun st ->
            if st = Sender.Finished then finishes.(i) <- Some (Engine.now eng))
          ~deliver:(fun b -> Buffer.add_bytes sinks.(i) b)
          ())
      flows
  in
  { eng; topo; bytes; conns; sinks; starts = Array.make n Time.zero; finishes }

let conns t = t.conns

let sum t f =
  Array.fold_left (fun a c -> a + f (Sender.stats (Spray.sender c))) 0 t.conns

type outcome = {
  nflows : int;
  offered_bytes : int;
  delivered_bytes : int;
  byte_exact : bool;
  finished : int;
  failed : int;
  completion : Time.t option;
  fct_p99 : Time.t;
  switch_dropped : int;
  violations : string list;
}

let outcome t ~cap =
  let n = Array.length t.conns in
  let count p =
    Array.fold_left
      (fun a c -> if p (Spray.state c) then a + 1 else a)
      0 t.conns
  in
  let fcts =
    Array.mapi
      (fun i -> function Some f -> f - t.starts.(i) | None -> cap)
      t.finishes
  in
  Array.sort compare fcts;
  let p99 = Int.max 0 (int_of_float (ceil (0.99 *. float_of_int n)) - 1) in
  {
    nflows = n;
    offered_bytes = n * t.bytes;
    delivered_bytes =
      Array.fold_left (fun a b -> a + Buffer.length b) 0 t.sinks;
    byte_exact =
      Array.for_all Fun.id
        (Array.mapi
           (fun i b ->
             Bytes.equal (Buffer.to_bytes b)
               (Fault_soak.fill_pattern ~msg:i ~len:t.bytes))
           t.sinks);
    finished = count (fun s -> s = Sender.Finished);
    failed = count (function Sender.Failed _ -> true | _ -> false);
    completion =
      Array.fold_left
        (fun acc ft ->
          match (acc, ft) with Some a, Some b -> Some (Int.max a b) | _ -> None)
        (Some Time.zero) t.finishes;
    fct_p99 = fcts.(Int.min p99 (n - 1));
    switch_dropped =
      Array.fold_left
        (fun a sw ->
          let st = Switch.stats sw in
          a + st.Switch.dropped_overflow + st.Switch.dropped_no_route
          + st.Switch.dropped_epd)
        0 t.topo.Network.switches;
    violations =
      Network.audit t.topo
      @ List.concat_map Spray.invariants (Array.to_list t.conns);
  }

let run t ~jitter ~every_us ~spread_us ~cap =
  (* Stagger the starts: simultaneous senders would synchronize their
     slow-start bursts and retransmission timers (everyone overflows the
     queue, everyone times out together, everyone collides again), which
     no real incast exhibits past the first RTT. A seeded jitter breaks
     the phase; after that, ack clocking keeps the senders interleaved. *)
  Array.iteri
    (fun i conn ->
      let at = Time.us ((i * every_us) + Rng.int jitter spread_us) in
      t.starts.(i) <- at;
      ignore
        (Engine.schedule_at t.eng ~time:at (fun () ->
             Spray.send conn (Fault_soak.fill_pattern ~msg:i ~len:t.bytes);
             Spray.close conn)))
    t.conns;
  (* Completion times are data, so a transfer cannot stop at a fixed
     horizon: run in slices until every connection is terminal. *)
  let terminal () =
    Array.for_all (fun c -> Spray.state c <> Sender.Active) t.conns
  in
  let rec go () =
    let now = Engine.now t.eng in
    if (not (terminal ())) && now < cap then begin
      Engine.run ~until:(Int.min cap (now + Time.ms 5)) t.eng;
      go ()
    end
  in
  go ();
  Engine.run ~until:(Engine.now t.eng + Time.ms 10) t.eng;
  outcome t ~cap

let check ~tag o =
  List.map (fun v -> tag ^ ": " ^ v) o.violations
  @ (if o.byte_exact then []
     else [ tag ^ ": delivered streams not byte-exact" ])
  @
  if o.finished = o.nflows then []
  else
    [
      Printf.sprintf "%s: %d of %d flows finished (%d failed)" tag o.finished
        o.nflows o.failed;
    ]
