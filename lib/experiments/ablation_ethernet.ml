open Osiris_sim
module Machine = Osiris_core.Machine
module Ether = Osiris_ether.Ether
module Cpu = Osiris_os.Cpu
module Irq = Osiris_os.Irq
module Tc = Osiris_bus.Turbochannel

(* A minimal host for the Ethernet experiments: CPU, bus, interrupt
   controller, one interface. *)
let mk_host eng (machine : Machine.t) =
  let cpu = Cpu.create eng ~hz:machine.Machine.cpu_hz in
  let bus = Tc.create eng machine.Machine.bus in
  let irq = Irq.create eng ~cpu ~dispatch_cost:machine.Machine.interrupt_cost in
  let nic = Ether.create eng ~cpu ~bus ~irq ~irq_line:1 in
  (cpu, nic)

let pair machine =
  let eng = Engine.create () in
  let _, nic_a = mk_host eng machine in
  let _, nic_b = mk_host eng machine in
  Ether.connect nic_a nic_b;
  (eng, nic_a, nic_b)

let rtt_ethernet ~machine ~msg_size ?(rounds = 12) () =
  let eng, nic_a, nic_b = pair machine in
  Measure.rtt eng ~rounds (fun pong ->
      Ether.set_receiver nic_b (fun msg ->
          Ether.send nic_b (Bytes.create (Bytes.length msg)));
      Ether.set_receiver nic_a (fun _ -> pong ());
      fun () -> Ether.send nic_a (Bytes.create msg_size))

let throughput_ethernet ~machine ~msg_size =
  let eng, nic_a, nic_b = pair machine in
  let bytes = ref 0 in
  Ether.set_receiver nic_b (fun msg -> bytes := !bytes + Bytes.length msg);
  Process.spawn eng ~name:"src" (fun () ->
      let rec loop () =
        Ether.send nic_a (Bytes.create msg_size);
        loop ()
      in
      loop ());
  Engine.run ~until:(Time.ms 200) eng;
  Report.mbps ~bytes_count:!bytes ~ns:(Engine.now eng)

let table () =
  let machine = Machine.ds5000_200 in
  let rows =
    List.map
      (fun msg_size ->
        let e = rtt_ethernet ~machine ~msg_size () in
        let o =
          Table1.rtt ~machine ~proto:Table1.Raw_atm ~msg_size ~rounds:8 ()
        in
        [
          string_of_int msg_size;
          Printf.sprintf "%.0f" e;
          Printf.sprintf "%.0f" o;
          Printf.sprintf "%.1fx" (e /. o);
        ])
      [ 1; 1024; 4096 ]
  in
  let tput =
    [
      "throughput 16KB msgs (Mbps)";
      Printf.sprintf "%.1f"
        (throughput_ethernet ~machine ~msg_size:(16 * 1024));
      Printf.sprintf "%.0f"
        (Receive_side.throughput ~machine
           ~variant:
             {
               Receive_side.label = "s";
               dma = Osiris_board.Board.Single_cell;
               invalidation = Osiris_core.Driver.Lazy;
               checksum = false;
             }
           ~msg_size:(16 * 1024) ~window_ms:25 ());
      "-";
    ]
  in
  {
    Report.t_title =
      "4 baseline: Ethernet adaptor vs OSIRIS on the DEC 5000/200";
    header = [ "msg size (B)"; "Ethernet RTT (us)"; "OSIRIS RTT (us)"; "ratio" ];
    rows = rows @ [ tput ];
    t_paper_note =
      "1-byte OSIRIS latency is comparable to (a bit better than) Ethernet \
       despite the adaptor's complexity; at bulk sizes the technologies \
       are orders of magnitude apart";
  }
