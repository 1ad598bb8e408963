open Osiris_sim
module Machine = Osiris_core.Machine
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Wiring = Osiris_os.Wiring
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg

let raw_vci = 9

(* Raw-ATM RTT with a given wiring policy. *)
let rtt_with_policy ~policy ~msg_size =
  let machine = Machine.ds5000_200 in
  let eng = Engine.create () in
  let cfg = Host.default_config in
  let a = Host.create eng machine ~addr:0x0a000001l cfg in
  let b = Host.create eng machine ~addr:0x0a000002l { cfg with seed = 43 } in
  Wiring.set_policy a.Host.wiring policy;
  Wiring.set_policy b.Host.wiring policy;
  ignore (Network.connect eng a b);
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let pong = Mailbox.create eng ~empty:() () in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"echo" (fun ~vci msg ->
      let len = Msg.length msg in
      Msg.dispose msg;
      Driver.send b.Host.driver ~vci (Msg.alloc b.Host.vs ~len ()));
  Demux.bind a.Host.demux ~vci:raw_vci ~name:"pong" (fun ~vci:_ msg ->
      Msg.dispose msg;
      ignore (Mailbox.try_send pong ()));
  let samples = Osiris_util.Stats.create () in
  Process.spawn eng ~name:"pinger" (fun () ->
      for i = 1 to 12 do
        let t0 = Engine.now eng in
        Driver.send a.Host.driver ~vci:raw_vci
          (Msg.alloc a.Host.vs ~len:msg_size ());
        let () = Mailbox.recv pong in
        if i > 4 then
          Osiris_util.Stats.add samples (Time.to_float_us (Engine.now eng - t0))
      done;
      Engine.stop eng);
  Engine.run ~until:(Time.s 10) eng;
  Osiris_util.Stats.mean samples

let table () =
  let machine = Machine.ds5000_200 in
  let eng = Engine.create () in
  let cpu = Osiris_os.Cpu.create eng ~hz:machine.Machine.cpu_hz in
  let w = Wiring.create cpu machine.Machine.wiring Wiring.Mach_full in
  let cost policy pages =
    Wiring.set_policy w policy;
    Time.to_float_us (Wiring.cost_of w ~pages)
  in
  let rows =
    List.map
      (fun (label, policy) ->
        [
          label;
          Printf.sprintf "%.0f" (cost policy 1);
          Printf.sprintf "%.0f" (cost policy 4);
          Printf.sprintf "%.0f" (rtt_with_policy ~policy ~msg_size:4096);
        ])
      [ ("Mach standard", Wiring.Mach_full); ("low-level pmap", Wiring.Low_level) ]
  in
  {
    Report.t_title = "2.4 ablation: page wiring cost and its latency impact";
    header =
      [ "policy"; "wire 1 page (us)"; "wire 4 pages (us)"; "ATM 4KB RTT (us)" ];
    rows;
    t_paper_note =
      "Mach's standard wiring gives stronger guarantees than DMA needs and \
       costs surprisingly much; low-level pmap wiring restored acceptable \
       performance";
  }
