(* Kernel bypass with application device channels (§3.2): two user-level
   applications on two hosts get direct, protected access to their OSIRIS
   adaptors and ping-pong messages without any kernel involvement on the
   data path. A third, rogue application demonstrates the on-board
   protection check.

   Run with: dune exec examples/kernel_bypass.exe *)

open Osiris_core
module Adc = Osiris_adc.Adc
module Msg = Osiris_xkernel.Msg
module Engine = Osiris_sim.Engine
module Process = Osiris_sim.Process
module Time = Osiris_sim.Time
module Board = Osiris_board.Board
module Demux = Osiris_xkernel.Demux

let () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in

  (* The OS maps a queue-page pair into each application: after this, the
     kernel is only involved when an interrupt needs dispatching. *)
  let app_a = Adc.open_ a () in
  let app_b = Adc.open_ b () in
  let vci = 60 in
  Board.bind_vci a.Host.board ~vci (Adc.channel app_a);
  Board.bind_vci b.Host.board ~vci (Adc.channel app_b);

  (* app-b echoes; app-a measures. *)
  let rounds = 20 in
  let rtt =
    Osiris_experiments.Measure.rtt eng ~rounds (fun pong ->
        Demux.bind (Adc.demux app_b) ~vci ~name:"echo" (fun ~vci:_ msg ->
            let len = Msg.length msg in
            Msg.dispose msg;
            Adc.send app_b ~vci (Msg.alloc (Adc.vspace app_b) ~len ()));
        Demux.bind (Adc.demux app_a) ~vci ~name:"pong" (fun ~vci:_ msg ->
            Msg.dispose msg;
            pong ());
        fun () -> Adc.send app_a ~vci (Adc.alloc_msg app_a ~len:1024 ()))
  in
  Printf.printf "user-to-user over ADCs, 1KB RTT: mean %.0f us (n=%d)\n" rtt
    rounds;

  (* The protection story: a rogue app names physical pages it does not
     own; the board refuses to transmit and the kernel is notified. *)
  let rogue = Adc.open_ a () in
  let vci_r = 61 in
  Board.bind_vci a.Host.board ~vci:vci_r (Adc.channel rogue);
  let violations = ref 0 in
  Host.set_violation_handler a (fun () -> incr violations);
  let sent_before = (Board.stats a.Host.board).Board.pdus_sent in
  Process.spawn eng ~name:"rogue" (fun () ->
      Adc.send_unauthorized rogue ~vci:vci_r ~len:4096);
  Engine.run ~until:(Engine.now eng + Time.ms 10) eng;
  let sent_after = (Board.stats a.Host.board).Board.pdus_sent in
  Printf.printf
    "rogue transmit attempt: %d violation interrupt(s), %d PDUs leaked\n"
    !violations (sent_after - sent_before);
  if !violations = 0 || sent_after <> sent_before then exit 1
