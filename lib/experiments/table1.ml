module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg
module Udp = Osiris_proto.Udp

type proto = Raw_atm | Udp_ip

(* One ping-pong experiment: returns mean RTT in microseconds. *)
let rtt_with_locking ~locking ~machine ~proto ~msg_size ?(rounds = 16) () =
  let config =
    {
      Host.default_config with
      board = { Board.default_config with Board.locking };
    }
  in
  let eng, net =
    Network.pair ~machine_a:machine ~machine_b:machine ~config ()
  in
  let a = net.Network.a and b = net.Network.b in
  (* Wire up the echo service on B and the pong notifier on A. *)
  Measure.rtt eng ~rounds (fun pong ->
      match proto with
      | Raw_atm ->
          Measure.bind_raw net;
          Demux.bind b.Host.demux ~vci:Measure.raw_vci ~name:"echo"
            (fun ~vci msg ->
              let len = Msg.length msg in
              Msg.dispose msg;
              let reply = Msg.alloc b.Host.vs ~len () in
              Driver.send b.Host.driver ~vci reply);
          Demux.bind a.Host.demux ~vci:Measure.raw_vci ~name:"pong"
            (fun ~vci:_ msg ->
              Msg.dispose msg;
              pong ());
          fun () ->
            Driver.send a.Host.driver ~vci:Measure.raw_vci
              (Msg.alloc a.Host.vs ~len:msg_size ())
      | Udp_ip ->
          Udp.bind b.Host.udp ~port:7 (fun ~src ~src_port msg ->
              let len = Msg.length msg in
              Msg.dispose msg;
              let reply = Msg.alloc b.Host.vs ~len () in
              Udp.output b.Host.udp ~dst:src ~src_port:7 ~dst_port:src_port
                reply);
          Udp.bind a.Host.udp ~port:9 (fun ~src:_ ~src_port:_ msg ->
              Msg.dispose msg;
              pong ());
          fun () ->
            Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
              (Msg.alloc a.Host.vs ~len:msg_size ()))

let rtt ~machine ~proto ~msg_size ?rounds () =
  rtt_with_locking ~locking:Osiris_board.Desc_queue.Lock_free ~machine ~proto
    ~msg_size ?rounds ()

let sizes = [ 1; 1024; 2048; 4096 ]

let paper_values =
  [
    (("DEC 5000/200", Raw_atm, 1), 353.);
    (("DEC 5000/200", Raw_atm, 1024), 417.);
    (("DEC 5000/200", Raw_atm, 2048), 486.);
    (("DEC 5000/200", Raw_atm, 4096), 778.);
    (("DEC 5000/200", Udp_ip, 1), 598.);
    (("DEC 5000/200", Udp_ip, 1024), 659.);
    (("DEC 5000/200", Udp_ip, 2048), 725.);
    (("DEC 5000/200", Udp_ip, 4096), 1011.);
    (("DEC 3000/600", Raw_atm, 1), 154.);
    (("DEC 3000/600", Raw_atm, 1024), 215.);
    (("DEC 3000/600", Raw_atm, 2048), 283.);
    (("DEC 3000/600", Raw_atm, 4096), 449.);
    (("DEC 3000/600", Udp_ip, 1), 316.);
    (("DEC 3000/600", Udp_ip, 1024), 376.);
    (("DEC 3000/600", Udp_ip, 2048), 446.);
    (("DEC 3000/600", Udp_ip, 4096), 619.);
  ]

let table () =
  let rows =
    List.concat_map
      (fun machine ->
        List.map
          (fun proto ->
            let label =
              match proto with Raw_atm -> "ATM" | Udp_ip -> "UDP/IP"
            in
            let cells =
              List.map
                (fun msg_size ->
                  let v = rtt ~machine ~proto ~msg_size () in
                  let p =
                    List.assoc (machine.Machine.name, proto, msg_size)
                      paper_values
                  in
                  Printf.sprintf "%.0f (paper %.0f)" v p)
                sizes
            in
            machine.Machine.name :: label :: cells)
          [ Raw_atm; Udp_ip ])
      [ Machine.ds5000_200; Machine.dec3000_600 ]
  in
  {
    Report.t_title = "Table 1: Round-Trip Latencies (us)";
    header = [ "Machine"; "Protocol"; "1B"; "1024B"; "2048B"; "4096B" ];
    rows;
    t_paper_note =
      "measured vs paper; shapes to preserve: UDP/IP ~ ATM + const, Alpha \
       ~2.3x faster, growth with size ~ linear";
  }
