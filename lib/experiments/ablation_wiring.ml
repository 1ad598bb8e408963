open Osiris_sim
module Machine = Osiris_core.Machine
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Driver = Osiris_core.Driver
module Wiring = Osiris_os.Wiring
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg

(* Raw-ATM RTT with a given wiring policy. *)
let rtt_with_policy ~policy ~msg_size =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Wiring.set_policy a.Host.wiring policy;
  Wiring.set_policy b.Host.wiring policy;
  Measure.rtt eng ~rounds:8 (fun pong ->
      Measure.bind_raw net;
      Demux.bind b.Host.demux ~vci:Measure.raw_vci ~name:"echo"
        (fun ~vci msg ->
          let len = Msg.length msg in
          Msg.dispose msg;
          Driver.send b.Host.driver ~vci (Msg.alloc b.Host.vs ~len ()));
      Demux.bind a.Host.demux ~vci:Measure.raw_vci ~name:"pong"
        (fun ~vci:_ msg ->
          Msg.dispose msg;
          pong ());
      fun () ->
        Driver.send a.Host.driver ~vci:Measure.raw_vci
          (Msg.alloc a.Host.vs ~len:msg_size ()))

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
