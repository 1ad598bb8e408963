(* Tests for the Ethernet baseline adaptor. *)

open Osiris_sim
module Ether = Osiris_ether.Ether
module Machine = Osiris_core.Machine
module Cpu = Osiris_os.Cpu
module Irq = Osiris_os.Irq
module Tc = Osiris_bus.Turbochannel

let pair () =
  let machine = Machine.ds5000_200 in
  let eng = Engine.create () in
  let mk () =
    let cpu = Cpu.create eng ~hz:machine.Machine.cpu_hz in
    let bus = Tc.create eng machine.Machine.bus in
    let irq =
      Irq.create eng ~cpu ~dispatch_cost:machine.Machine.interrupt_cost
    in
    (Ether.create eng ~cpu ~bus ~irq ~irq_line:1, irq)
  in
  let a, _ = mk () and b, irq_b = mk () in
  Ether.connect a b;
  (eng, a, b, irq_b)

let test_message_integrity () =
  let eng, a, b, _ = pair () in
  let got = ref [] in
  Ether.set_receiver b (fun msg -> got := msg :: !got);
  let small = Bytes.init 100 (fun i -> Char.chr (i land 0xff)) in
  let big = Bytes.init 4000 (fun i -> Char.chr ((i * 3) land 0xff)) in
  Process.spawn eng ~name:"tx" (fun () ->
      Ether.send a small;
      Ether.send a big);
  Engine.run ~until:(Time.ms 50) eng;
  match List.rev !got with
  | [ m1; m2 ] ->
      Alcotest.(check bytes) "small intact" small m1;
      Alcotest.(check bytes) "big intact (chunked at MTU)" big m2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 messages, got %d"
                          (List.length l))

let test_per_frame_interrupts () =
  let eng, a, b, irq_b = pair () in
  Ether.set_receiver b ignore;
  Process.spawn eng ~name:"tx" (fun () ->
      Ether.send a (Bytes.create 4000) (* 3 frames *));
  Engine.run ~until:(Time.ms 50) eng;
  Alcotest.(check int) "3 frames" 3 (Ether.stats b).Ether.frames_received;
  (* No coalescing on this hardware: one interrupt per frame. *)
  Alcotest.(check int) "one interrupt per frame" 3 (Irq.count irq_b)

let test_wire_rate () =
  (* 10 Mb/s: a 1500-byte frame takes ~1.2 ms on the wire. *)
  let eng, a, b, _ = pair () in
  let t_got = ref 0 in
  Ether.set_receiver b (fun _ -> t_got := Engine.now eng);
  Process.spawn eng ~name:"tx" (fun () -> Ether.send a (Bytes.create 1500));
  Engine.run ~until:(Time.ms 50) eng;
  let expected = (1500 + 38) * 8 * 100 in
  Alcotest.(check bool)
    (Printf.sprintf "arrival %d ~ wire time %d" !t_got expected)
    true
    (!t_got > expected && !t_got < expected + Time.us 300)

let test_copy_accounting () =
  let eng, a, b, _ = pair () in
  Ether.set_receiver b ignore;
  Process.spawn eng ~name:"tx" (fun () -> Ether.send a (Bytes.create 3000));
  Engine.run ~until:(Time.ms 50) eng;
  Alcotest.(check int) "every byte copied on receive" 3000
    (Ether.stats b).Ether.bytes_copied

let suite =
  [
    Alcotest.test_case "message integrity across MTU chunking" `Quick
      test_message_integrity;
    Alcotest.test_case "per-frame interrupts (no coalescing)" `Quick
      test_per_frame_interrupts;
    Alcotest.test_case "10 Mb/s wire rate" `Quick test_wire_rate;
    Alcotest.test_case "receive copies" `Quick test_copy_accounting;
  ]
