open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Driver = Osiris_core.Driver
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg
module Irq = Osiris_os.Irq

let run ?(burst = 64) ~spacing_us () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Measure.bind_raw net;
  let received = ref 0 in
  Demux.bind b.Host.demux ~vci:Measure.raw_vci ~name:"sink" (fun ~vci:_ msg ->
      incr received;
      Msg.dispose msg);
  Process.spawn eng ~name:"burst" (fun () ->
      for _ = 1 to burst do
        let msg = Msg.alloc a.Host.vs ~len:1024 () in
        Driver.send a.Host.driver ~vci:Measure.raw_vci msg;
        if spacing_us > 0 then Process.sleep eng (Time.us spacing_us)
      done);
  Engine.run ~until:(Time.s 2) eng;
  (!received, Irq.count b.Host.irq)

let table () =
  let rows =
    List.map
      (fun spacing_us ->
        let pdus, irqs = run ~spacing_us () in
        [
          (if spacing_us = 0 then "back-to-back"
           else Printf.sprintf "%d us" spacing_us);
          string_of_int pdus;
          string_of_int irqs;
          Printf.sprintf "%.2f" (float_of_int irqs /. float_of_int pdus);
        ])
      [ 0; 50; 200; 500; 2000 ]
  in
  {
    Report.t_title =
      "2.1.2 ablation: receive interrupts per PDU vs packet spacing";
    header = [ "spacing"; "PDUs"; "interrupts"; "per PDU" ];
    rows;
    t_paper_note =
      "interrupt only on receive-queue empty->nonempty: trains cost much \
       less than one 75us interrupt per PDU; spaced packets still get one \
       (for latency)";
  }
