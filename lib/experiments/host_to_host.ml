open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Board = Osiris_board.Board
module Driver = Osiris_core.Driver
module Msg = Osiris_xkernel.Msg
module Udp = Osiris_proto.Udp

(* Goodput of a saturating one-way UDP transfer of 64 KB messages
   between two hosts, measured over the 40 ms after a 40 ms warm-up. *)
let throughput ~machine ~dma =
  let msg_size = 64 * 1024 and window_ms = 40 in
  let config =
    {
      Host.default_config with
      board = { Board.default_config with Board.dma_mode = dma };
    }
  in
  let eng, net =
    Network.pair ~machine_a:machine ~machine_b:machine ~config ()
  in
  let a = net.Network.a and b = net.Network.b in
  let bytes = ref 0 in
  Host.new_udp_test_receiver b ~port:7 ~on_msg:(fun ~len ->
      bytes := !bytes + len);
  Process.spawn eng ~name:"src" (fun () ->
      let rec loop () =
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
          (Msg.alloc a.Host.vs ~len:msg_size ());
        loop ()
      in
      loop ());
  let b0, b1, ns =
    Measure.window eng ~warmup:(Time.ms window_ms) ~span:(Time.ms window_ms)
      (fun () -> !bytes)
  in
  Report.mbps ~bytes_count:(b1 - b0) ~ns

let table () =
  let machine = Machine.dec3000_600 in
  let rx dma =
    Receive_side.throughput ~machine
      ~variant:
        { Receive_side.label = "rx"; dma; invalidation = Osiris_core.Driver.Lazy;
          checksum = false }
      ~msg_size:(16 * 1024) ~window_ms:25 ()
  in
  let h2h dma = throughput ~machine ~dma in
  let single_rx = rx Board.Single_cell and double_rx = rx Board.Double_cell in
  let single_h2h = h2h Board.Single_cell
  and double_h2h = h2h Board.Double_cell in
  let verdict =
    if double_h2h >= Float.min single_rx double_rx -. 40.0
       && double_h2h <= Float.max single_rx double_rx +. 10.0
    then "prediction holds"
    else "prediction violated"
  in
  {
    Report.t_title =
      "4 (closing prediction): host-to-host throughput vs receive side in \
       isolation (DEC 3000/600, 64KB messages)";
    header = [ "configuration"; "Mbps" ];
    rows =
      [
        [ "receive side alone, single-cell DMA";
          Printf.sprintf "%.0f" single_rx ];
        [ "receive side alone, double-cell DMA";
          Printf.sprintf "%.0f" double_rx ];
        [ "host-to-host, single-cell DMA"; Printf.sprintf "%.0f" single_h2h ];
        [ "host-to-host, double-cell DMA (the configuration the paper \
           could not measure)";
          Printf.sprintf "%.0f" double_h2h ];
        [ "paper's prediction: double-cell host-to-host falls between the \
           receive-side curves";
          verdict ];
      ];
    t_paper_note =
      "\"the host-to-host throughput attained is expected to fall between \
       the graphs for single cell DMA and that for double cell DMA on the \
       receive side\" — testable here because the simulated transmit DMA \
       controller already supports double-cell transfers";
  }
