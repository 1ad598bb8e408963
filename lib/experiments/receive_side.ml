open Osiris_sim
module Host = Osiris_core.Host
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Ip = Osiris_proto.Ip
module Udp = Osiris_proto.Udp

type variant = {
  label : string;
  dma : Board.dma_mode;
  invalidation : Driver.invalidation;
  checksum : bool;
}

let throughput ~machine ~variant ~msg_size ?(window_ms = 60) () =
  let eng = Engine.create () in
  let cfg =
    {
      Host.default_config with
      board = { Board.default_config with Board.dma_mode = variant.dma };
      udp_checksum = variant.checksum;
      invalidation = variant.invalidation;
    }
  in
  let host = Host.create eng machine ~addr:0x0a000002l cfg in
  (* Protocol-valid fictitious traffic: the IP fragments of one UDP
     datagram from a phantom peer. *)
  let payload = Bytes.init msg_size (fun i -> Char.chr (i land 0xff)) in
  let datagram =
    Udp.datagram_image ~src_port:9 ~dst_port:7 ~checksum:variant.checksum
      payload
  in
  (* Several copies with distinct IP ids, so datagrams lost to board-side
     drops do not alias in reassembly — but few enough that the receiver's
     63 buffers can hold the worst-case set of partial datagrams. *)
  let frags_per_datagram =
    let per = Ip.fragment_data_size cfg.Host.ip
        ~page_size:machine.Machine.page_size in
    (Bytes.length datagram + per - 1) / per
  in
  (* Very large datagrams (tens of buffers in flight) must reuse one id:
     the 63-buffer pool cannot hold two partial copies, and duplicate
     suppression in IP reassembly makes id reuse safe. *)
  let n_ids =
    if frags_per_datagram > 12 then 1
    else Int.max 2 (Int.min 7 (24 / frags_per_datagram))
  in
  let fragments =
    List.concat_map
      (fun id ->
        Ip.fragment_images ~id cfg.Host.ip
          ~page_size:machine.Machine.page_size ~src:0x0a000001l
          ~dst:0x0a000002l ~proto:Udp.protocol_number datagram)
      (List.init n_ids (fun i -> i + 1))
  in
  Board.start_fictitious_source host.Host.board
    ~pdus:(List.map (fun f -> (Host.ip_vci host, f)) fragments)
    ();
  Host.start host;
  let bytes_got = ref 0 in
  Host.new_udp_test_receiver host ~port:7 ~on_msg:(fun ~len ->
      bytes_got := !bytes_got + len);
  let b0, b1, ns =
    Measure.window eng ~warmup:(Time.ms window_ms) ~span:(Time.ms window_ms)
      (fun () -> !bytes_got)
  in
  Report.mbps ~bytes_count:(b1 - b0) ~ns

let figure ~machine ~variants ~title ~paper_note =
  let series =
    List.map
      (fun variant ->
        {
          Report.label = variant.label;
          points =
            List.map
              (fun msg_size ->
                (msg_size, throughput ~machine ~variant ~msg_size ()))
              Report.sizes_1k_to_256k;
        })
      variants
  in
  {
    Report.title;
    xlabel = "msg size";
    ylabel = "Mbps";
    series;
    paper_note;
  }

let figure2 () =
  figure ~machine:Machine.ds5000_200
    ~variants:
      [
        { label = "double-cell"; dma = Board.Double_cell;
          invalidation = Driver.Lazy; checksum = false };
        { label = "single-cell"; dma = Board.Single_cell;
          invalidation = Driver.Lazy; checksum = false };
        { label = "single+inval"; dma = Board.Single_cell;
          invalidation = Driver.Eager; checksum = false };
      ]
    ~title:"Figure 2: DEC 5000/200 UDP/IP/OSIRIS receive-side throughput"
    ~paper_note:
      "maxima 379 (double), 340 (single), 250 (single + eager cache \
       invalidation); 80 Mbps when the CPU reads the data (UDP-CS)"

let figure3 () =
  figure ~machine:Machine.dec3000_600
    ~variants:
      [
        { label = "double-cell"; dma = Board.Double_cell;
          invalidation = Driver.Lazy; checksum = false };
        { label = "double+CS"; dma = Board.Double_cell;
          invalidation = Driver.Lazy; checksum = true };
        { label = "single-cell"; dma = Board.Single_cell;
          invalidation = Driver.Lazy; checksum = false };
        { label = "single+CS"; dma = Board.Single_cell;
          invalidation = Driver.Lazy; checksum = true };
      ]
    ~title:"Figure 3: DEC 3000/600 UDP/IP/OSIRIS receive-side throughput"
    ~paper_note:
      "double-cell approaches the 516 Mbps link payload at >=16KB; with \
       UDP checksumming ~438 Mbps (~15% cost); single-cell bus-bound at 463"
