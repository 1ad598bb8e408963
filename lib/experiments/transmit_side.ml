open Osiris_sim
module Host = Osiris_core.Host
module Machine = Osiris_core.Machine
module Board = Osiris_board.Board
module Atm_link = Osiris_link.Atm_link
module Msg = Osiris_xkernel.Msg
module Udp = Osiris_proto.Udp
module Rng = Osiris_util.Rng

let throughput ~machine ~checksum ~msg_size ?(window_ms = 60) () =
  let eng = Engine.create () in
  let cfg =
    {
      Host.default_config with
      board = { Board.default_config with Board.dma_mode = Board.Single_cell };
      udp_checksum = checksum;
    }
  in
  let host = Host.create eng machine ~addr:0x0a000001l cfg in
  let rng = Rng.create ~seed:11 in
  let out_link = Atm_link.create eng (Rng.split rng) Atm_link.default_config in
  let in_link = Atm_link.create eng (Rng.split rng) Atm_link.default_config in
  Board.attach host.Host.board ~tx_link:out_link ~rx_link:in_link;
  Host.start host;
  (* Pure sink: drain arriving cells so link statistics stay clean. *)
  Process.spawn eng ~name:"sink" (fun () ->
      let rec loop () =
        ignore (Atm_link.recv out_link);
        loop ()
      in
      loop ());
  Process.spawn eng ~name:"source" (fun () ->
      let rec loop () =
        let msg = Msg.alloc host.Host.vs ~len:msg_size () in
        Udp.output host.Host.udp ~dst:0x0a000002l ~src_port:9 ~dst_port:7 msg;
        loop ()
      in
      loop ());
  (* Measure at the adaptor (cells actually put on the wire), not at the
     driver queue, so in-flight transmit-queue contents do not inflate the
     rate. Cell data includes framing overhead (~1%). *)
  let cells0, cells1, ns =
    Measure.window eng ~warmup:(Time.ms window_ms) ~span:(Time.ms window_ms)
      (fun () -> (Board.stats host.Host.board).Board.cells_sent)
  in
  Report.mbps ~bytes_count:((cells1 - cells0) * Osiris_atm.Cell.data_size) ~ns

let figure4 () =
  let curve label machine checksum =
    {
      Report.label;
      points =
        List.map
          (fun msg_size ->
            (msg_size, throughput ~machine ~checksum ~msg_size ()))
          Report.sizes_1k_to_256k;
    }
  in
  {
    Report.title = "Figure 4: UDP/IP/OSIRIS transmit-side throughput";
    xlabel = "msg size";
    ylabel = "Mbps";
    series =
      [
        curve "3000/600" Machine.dec3000_600 false;
        curve "3000/600+CS" Machine.dec3000_600 true;
        curve "5000/200" Machine.ds5000_200 false;
      ];
    paper_note =
      "maximum ~325 Mbps, limited entirely by single-cell DMA overhead on \
       the TURBOchannel; 5000/200 slightly below the Alpha";
  }
