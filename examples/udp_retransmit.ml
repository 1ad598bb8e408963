(* Reliable delivery over an unreliable fabric — now via the stack's own
   transport ({!Osiris_transport}) instead of a hand-rolled stop-and-wait
   loop: sliding window, selective acks, adaptive RTO with backoff and
   congestion control, run against the same scripted cell-drop burst
   from the fault layer.

   The point of the exercise is unchanged: the adaptor, driver and UDP
   path give no delivery guarantee (the paper's stack stops at
   checksummed datagrams), so recovery from a lossy window belongs to a
   layer above them.  A 30% per-cell drop burst in the middle of the
   transfer kills essentially every multi-cell PDU it touches; the
   transport's sack-driven fast retransmits and retransmission timer
   refill the holes until the stream crosses intact, and the stream is
   verified byte-for-byte on the far side.

   Run with: dune exec examples/udp_retransmit.exe *)

open Osiris_core
module Board = Osiris_board.Board
module Switch = Osiris_switch.Switch
module Engine = Osiris_sim.Engine
module Time = Osiris_sim.Time
module Plan = Osiris_fault.Plan
module Injector = Osiris_fault.Injector
module Spray = Osiris_lb.Spray
module Sender = Osiris_transport.Sender

let block_size = 8 * 1024
let nblocks = 24
let total_bytes = nblocks * block_size

(* Deterministic stream contents: byte i of block b — the same pattern
   the stop-and-wait version of this example transferred, so the
   byte-exact check survives the transport swap. *)
let block_byte b i = Char.chr ((i + (b * 197)) land 0xff)
let stream_byte off = block_byte (off / block_size) (off mod block_size)

let () =
  (* Transport retransmission only helps if the board underneath can
     shed a wedged VC: a cell dropped mid-PDU leaves the VC's striped
     reassembly rotated out of phase, and without the reassembly-timeout
     sweep every later PDU on that VC — including the retransmits meant
     to repair the loss — reassembles permuted and dies in the CRC
     check.  The timeout is the layer boundary: the board recovers its
     own state, the transport recovers the bytes. *)
  let board =
    {
      Board.default_config with
      Board.reassembly_timeout = Time.ms 1;
    }
  in
  (* Two hosts on one switch whose queue is deep enough never to drop
     (a 1 KB segment is ~22 cells): the only losses are the fault's. *)
  let eng, topo =
    Network.star ~n:2
      ~config:{ Host.default_config with Host.board }
      ~switch:{ Switch.default_config with Switch.queue_cells = 1024 }
      ()
  in

  (* The fault: the same heavy cell-drop burst over the data direction
     while the middle of the transfer is in flight.  Scripted, so every
     run shows the same storm. *)
  let plan = Plan.of_string "seed=11;drop@3ms-9ms=0.3" in
  let uplink = topo.Network.endpoints.(0).Network.to_fabric in
  ignore (Injector.inject eng ~plan ~link:uplink ());

  (* Receiver side: the transport delivers the stream in order; verify
     every byte against the generator as it arrives. *)
  let delivered = ref 0 and corrupt = ref 0 in
  let deliver payload =
    Bytes.iter
      (fun c ->
        if c <> stream_byte !delivered then incr corrupt;
        incr delivered)
      payload
  in
  let t_end = ref 0 in
  let conn =
    Spray.connect topo ~mode:Spray.Single ~src:0 ~dst:1 ~deliver
      ~on_state:(fun st ->
        if st = Sender.Finished then begin
          t_end := Engine.now eng;
          Engine.stop eng
        end)
      ()
  in
  Spray.send conn (Bytes.init total_bytes stream_byte);
  Spray.close conn;
  Engine.run ~until:(Time.s 2) eng;

  let st = Sender.stats (Spray.sender conn) in
  Printf.printf
    "transferred %d blocks (%d KB) in %.2f ms simulated through a 30%% \
     drop burst\n"
    nblocks (total_bytes / 1024)
    (Time.to_float_us !t_end /. 1000.);
  Printf.printf
    "recovery: %d retransmits (%d fast, %d tail probes), %d timeouts, \
     %d cwnd cuts\n"
    st.Sender.retransmits st.Sender.fast_retransmits st.Sender.tail_probes
    st.Sender.timeouts st.Sender.cwnd_cuts;
  Printf.printf "stream: %d/%d bytes delivered, %d corrupt, %d garbled PDUs\n"
    !delivered total_bytes !corrupt (Spray.garbled conn);
  (match Spray.state conn with
  | Sender.Finished -> ()
  | Sender.Active ->
      print_endline "FAIL: transfer did not complete";
      exit 1
  | Sender.Failed r ->
      Printf.printf "FAIL: transfer failed: %s\n" r;
      exit 1);
  if !delivered <> total_bytes || !corrupt > 0 then begin
    print_endline "FAIL: delivered stream is not byte-exact";
    exit 1
  end;
  (match Spray.invariants conn with
  | [] -> ()
  | vs ->
      List.iter (Printf.printf "FAIL: invariant: %s\n") vs;
      exit 1);
  if st.Sender.retransmits = 0 then begin
    print_endline "FAIL: the drop burst never bit -- fault layer inert?";
    exit 1
  end
