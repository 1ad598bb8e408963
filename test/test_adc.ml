(* Tests for application device channels: kernel bypass, protection,
   isolation. *)

open Osiris_sim
open Osiris_core
module Adc = Osiris_adc.Adc
module Board = Osiris_board.Board
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Udp = Osiris_proto.Udp

let pair () =
  let eng = Engine.create () in
  let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l
      Host.default_config in
  let b = Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
      { Host.default_config with seed = 43 } in
  ignore (Network.connect eng a b);
  (eng, a, b)

let test_adc_end_to_end () =
  let eng, a, b = pair () in
  let app_a = Adc.open_ a () in
  let app_b = Adc.open_ b () in
  let vci = 40 in
  Board.bind_vci a.Host.board ~vci (Adc.channel app_a);
  Board.bind_vci b.Host.board ~vci (Adc.channel app_b);
  let got = ref None in
  Demux.bind (Adc.demux app_b) ~vci ~name:"sink" (fun ~vci:_ msg ->
      got := Some (Msg.read_all msg);
      Msg.dispose msg);
  let payload = Bytes.init 6000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Process.spawn eng ~name:"app" (fun () ->
      let m = Adc.alloc_msg app_a ~len:6000 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Adc.send app_a ~vci m);
  Engine.run ~until:(Time.ms 50) eng;
  match !got with
  | Some data -> Alcotest.(check bytes) "user-to-user intact" payload data
  | None -> Alcotest.fail "ADC message lost"

let test_adc_does_not_disturb_kernel () =
  let eng, a, b = pair () in
  let app_a = Adc.open_ a () in
  let app_b = Adc.open_ b () in
  let vci = 40 in
  Board.bind_vci a.Host.board ~vci (Adc.channel app_a);
  Board.bind_vci b.Host.board ~vci (Adc.channel app_b);
  Demux.bind (Adc.demux app_b) ~vci ~name:"sink" (fun ~vci:_ msg ->
      Msg.dispose msg);
  let kernel_got = ref 0 in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      incr kernel_got;
      Msg.dispose msg);
  Process.spawn eng ~name:"mix" (fun () ->
      for _ = 1 to 10 do
        Adc.send app_a ~vci (Adc.alloc_msg app_a ~len:4096 ());
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
          (Msg.alloc a.Host.vs ~len:4096 ())
      done);
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check int) "kernel traffic unaffected" 10 !kernel_got

let test_protection_violation () =
  let eng, a, _b = pair () in
  let rogue = Adc.open_ a () in
  let vci = 41 in
  Board.bind_vci a.Host.board ~vci (Adc.channel rogue);
  let violations = ref 0 in
  Host.set_violation_handler a (fun () -> incr violations);
  let sent0 = (Board.stats a.Host.board).Board.pdus_sent in
  Process.spawn eng ~name:"rogue" (fun () ->
      Adc.send_unauthorized rogue ~vci ~len:4096);
  Engine.run ~until:(Time.ms 20) eng;
  Alcotest.(check int) "violation interrupt" 1 !violations;
  Alcotest.(check int) "nothing transmitted" sent0
    (Board.stats a.Host.board).Board.pdus_sent;
  Alcotest.(check int) "board counted the fault" 1
    (Board.stats a.Host.board).Board.protection_faults

let test_authorized_pages_pass () =
  (* The same board check allows properly authorized buffers through. *)
  let eng, a, b = pair () in
  let app_a = Adc.open_ a () in
  let app_b = Adc.open_ b () in
  let vci = 42 in
  Board.bind_vci a.Host.board ~vci (Adc.channel app_a);
  Board.bind_vci b.Host.board ~vci (Adc.channel app_b);
  let n = ref 0 in
  Demux.bind (Adc.demux app_b) ~vci ~name:"sink" (fun ~vci:_ msg ->
      incr n;
      Msg.dispose msg);
  Process.spawn eng ~name:"app" (fun () ->
      for _ = 1 to 5 do
        Adc.send app_a ~vci (Adc.alloc_msg app_a ~len:1024 ())
      done);
  Engine.run ~until:(Time.ms 50) eng;
  Alcotest.(check int) "all authorized PDUs through" 5 !n;
  Alcotest.(check int) "no faults" 0
    (Board.stats a.Host.board).Board.protection_faults

let test_channel_exhaustion () =
  let eng, a, _ = pair () in
  ignore eng;
  (* Channel 0 is the kernel's; 15 ADC pages remain. *)
  for _ = 1 to 15 do
    ignore (Adc.open_ a ())
  done;
  Alcotest.(check bool) "16th open fails" true
    (try
       ignore (Adc.open_ a ());
       false
     with Failure _ -> true)

let suite =
  [
    Alcotest.test_case "user-to-user message" `Quick test_adc_end_to_end;
    Alcotest.test_case "coexists with kernel traffic" `Quick
      test_adc_does_not_disturb_kernel;
    Alcotest.test_case "protection violation trapped" `Quick
      test_protection_violation;
    Alcotest.test_case "authorized buffers pass" `Quick
      test_authorized_pages_pass;
    Alcotest.test_case "queue pages are finite" `Quick test_channel_exhaustion;
  ]
