open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Adc = Osiris_adc.Adc
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg
module Cpu = Osiris_os.Cpu

type path_kind = Kernel | Via_adc | User_via_kernel

let machine = Machine.ds5000_200

let rtt_generic ~kind ~msg_size =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Measure.rtt eng ~rounds:8 (fun pong ->
      match kind with
      | Via_adc ->
          (* Each side's application opens an ADC; VCIs are routed to the
             application's own queues, the channel drivers run in user
             space, and nothing crosses the kernel on the data path. *)
          let adc_a = Adc.open_ a () in
          let adc_b = Adc.open_ b () in
          let vci = 40 in
          Board.bind_vci a.Host.board ~vci (Adc.channel adc_a);
          Board.bind_vci b.Host.board ~vci (Adc.channel adc_b);
          Demux.bind (Adc.demux adc_a) ~vci ~name:"pong" (fun ~vci:_ msg ->
              Msg.dispose msg;
              pong ());
          Demux.bind (Adc.demux adc_b) ~vci ~name:"echo" (fun ~vci:_ msg ->
              let len = Msg.length msg in
              Msg.dispose msg;
              Adc.send adc_b ~vci (Msg.alloc (Adc.vspace adc_b) ~len ()));
          fun () -> Adc.send adc_a ~vci (Adc.alloc_msg adc_a ~len:msg_size ())
      | Kernel | User_via_kernel ->
          let from_user = kind = User_via_kernel in
          let crossing host =
            if from_user then begin
              (* user-level client of the kernel driver: kernel entry plus
                 a cross-domain buffer transfer on delivery *)
              Cpu.consume host.Host.cpu
                machine.Machine.driver_costs.Machine.syscall;
              Cpu.consume host.Host.cpu (Time.us 60)
            end
          in
          Measure.bind_raw net;
          Demux.bind b.Host.demux ~vci:Measure.raw_vci ~name:"echo"
            (fun ~vci msg ->
              let len = Msg.length msg in
              Msg.dispose msg;
              crossing b;
              Driver.send b.Host.driver ~vci ~from_user
                (Msg.alloc b.Host.vs ~len ()));
          Demux.bind a.Host.demux ~vci:Measure.raw_vci ~name:"pong"
            (fun ~vci:_ msg ->
              Msg.dispose msg;
              crossing a;
              pong ());
          fun () ->
            Driver.send a.Host.driver ~vci:Measure.raw_vci ~from_user
              (Msg.alloc a.Host.vs ~len:msg_size ()))

let rtt_kernel ~msg_size = rtt_generic ~kind:Kernel ~msg_size
let rtt_adc ~msg_size = rtt_generic ~kind:Via_adc ~msg_size
let rtt_user_via_kernel ~msg_size = rtt_generic ~kind:User_via_kernel ~msg_size

let protection_violation_caught () =
  let eng, net = Network.pair () in
  let a = net.Network.a in
  let adc = Adc.open_ a () in
  let vci = 40 in
  Board.bind_vci a.Host.board ~vci (Adc.channel adc);
  let violated = ref false in
  Host.set_violation_handler a (fun () -> violated := true);
  Process.spawn eng ~name:"rogue" (fun () ->
      Adc.send_unauthorized adc ~vci ~len:4096);
  Engine.run ~until:(Time.ms 50) eng;
  let sent = (Board.stats a.Host.board).Board.pdus_sent in
  !violated && sent = 0

let table () =
  let sizes = [ 1; 4096 ] in
  let row label f =
    label
    :: List.map (fun s -> Printf.sprintf "%.0f" (f ~msg_size:s)) sizes
  in
  {
    Report.t_title =
      "3.2 ablation: ADC vs kernel paths, raw-ATM RTT (us) on the 5000/200";
    header = [ "path"; "1B"; "4096B" ];
    rows =
      [
        row "kernel-to-kernel" rtt_kernel;
        row "user-to-user (ADC)" rtt_adc;
        row "user via kernel driver" rtt_user_via_kernel;
        [
          "protection check";
          (if protection_violation_caught () then "violation trapped"
           else "FAILED");
          "-";
        ];
      ];
    t_paper_note =
      "ADC user-to-user latency is within error margins of \
       kernel-to-kernel; the traditional user-level path pays kernel \
       crossings and domain transfers on every message";
  }
