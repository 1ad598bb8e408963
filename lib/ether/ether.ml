open Osiris_sim
module Cpu = Osiris_os.Cpu
module Irq = Osiris_os.Irq
module Tc = Osiris_bus.Turbochannel

(* The interface's fixed figures (ether.mli). A frame's overhead is its
   preamble 8 + header 14 + FCS 4 + interframe gap 12 bytes. *)
let wire_bps = 10_000_000
let frame_overhead = 38
let mtu = 1500
let min_frame_payload = 46
let ring_slots = 32
let copy_cycles_per_word = 3
let rx_frame_cost = Time.us 25
let rx_message_cost = Time.us 20

(* A frame on the wire: payload plus "last fragment of message" marker
   (driver-level chunking for test messages above the MTU). *)
type frame = { payload : Bytes.t; last : bool }

type stats = {
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable interrupts : int;
  mutable bytes_copied : int;
  mutable ring_drops : int;
}

type t = {
  eng : Engine.t;
  cpu : Cpu.t;
  bus : Tc.t;
  irq : Irq.t;
  irq_line : int;
  ring : frame Mailbox.t; (* receive descriptor ring *)
  mutable wire_busy_until : Time.t; (* shared with the peer *)
  mutable peer : t option;
  mutable receiver : Bytes.t -> unit;
  mutable reassembly : Bytes.t list; (* chunks of the message in flight *)
  stats : stats;
}

let create eng ~cpu ~bus ~irq ~irq_line =
  let t =
    {
      eng;
      cpu;
      bus;
      irq;
      irq_line;
      ring =
        Mailbox.create eng ~capacity:ring_slots
          ~empty:{ payload = Bytes.empty; last = false }
          ();
      wire_busy_until = 0;
      peer = None;
      receiver = ignore;
      reassembly = [];
      stats =
        {
          frames_sent = 0;
          frames_received = 0;
          interrupts = 0;
          bytes_copied = 0;
          ring_drops = 0;
        };
    }
  in
  (* The driver's receive thread: woken per frame by the interrupt, copies
     the frame out of the DMA buffer into a fresh kernel buffer (the
     classic non-zero-copy path), reassembles chunked messages. *)
  Irq.register irq ~line:irq_line ~name:"ether" (fun () ->
      t.stats.interrupts <- t.stats.interrupts + 1);
  Process.spawn eng ~name:"ether-rx" (fun () ->
      let rec loop () =
        let f = Mailbox.recv t.ring in
        t.stats.frames_received <- t.stats.frames_received + 1;
        (* copy out of the receive buffer *)
        let words = (Bytes.length f.payload + 3) / 4 in
        Cpu.consume t.cpu rx_frame_cost;
        Cpu.consume t.cpu
          (Cpu.cycles_ns t.cpu (words * copy_cycles_per_word));
        t.stats.bytes_copied <- t.stats.bytes_copied + Bytes.length f.payload;
        t.reassembly <- f.payload :: t.reassembly;
        if f.last then begin
          let msg = Bytes.concat Bytes.empty (List.rev t.reassembly) in
          t.reassembly <- [];
          Cpu.consume t.cpu rx_message_cost;
          t.receiver msg
        end;
        loop ()
      in
      loop ());
  t

let connect a b =
  a.peer <- Some b;
  b.peer <- Some a

let set_receiver t f = t.receiver <- f

let stats t = t.stats

let wire_time bytes =
  let on_wire = Int.max bytes min_frame_payload + frame_overhead in
  on_wire * 8 * 1_000_000_000 / wire_bps

(* Transmit one frame: DMA it from host memory across the I/O bus, then
   serialize it on the (shared, but effectively point-to-point) wire. *)
let send_frame t frame =
  let peer =
    match t.peer with
    | Some p -> p
    | None -> failwith "Ether.send: interface not connected"
  in
  Tc.dma_read t.bus ~bytes:(Bytes.length frame.payload);
  let now = Engine.now t.eng in
  let start = Int.max now t.wire_busy_until in
  let finish = start + wire_time (Bytes.length frame.payload) in
  t.wire_busy_until <- finish;
  peer.wire_busy_until <- finish;
  t.stats.frames_sent <- t.stats.frames_sent + 1;
  if start > now then Process.sleep t.eng (start - now);
  ignore
    (Engine.schedule_at t.eng ~time:finish (fun () ->
         (* DMA into the peer's receive buffer, then the per-frame
            interrupt (no coalescing on this hardware). *)
         Process.spawn peer.eng ~name:"ether-rx-dma" (fun () ->
             Tc.dma_write peer.bus ~bytes:(Bytes.length frame.payload);
             if Mailbox.try_send peer.ring frame then
               Irq.assert_line peer.irq ~line:peer.irq_line
             else peer.stats.ring_drops <- peer.stats.ring_drops + 1)))

let send t msg =
  (* Driver queueing cost per message, then chunk at the MTU. *)
  Cpu.consume t.cpu (Time.us 15);
  let len = Bytes.length msg in
  let nframes = Int.max 1 ((len + mtu - 1) / mtu) in
  for i = 0 to nframes - 1 do
    let off = i * mtu in
    let chunk = Int.min mtu (len - off) in
    send_frame t
      { payload = Bytes.sub msg off (Int.max chunk 0); last = i = nframes - 1 }
  done
