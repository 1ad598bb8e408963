module Machine = Osiris_core.Machine
module Host = Osiris_core.Host
module Board = Osiris_board.Board
module Desc_queue = Osiris_board.Desc_queue
module Driver = Osiris_core.Driver

(* Receive-side throughput with a given locking discipline, also reporting
   host dual-port word accesses per received PDU. *)
let receive_with locking =
  let machine = Machine.ds5000_200 in
  let variant =
    {
      Receive_side.label = "x";
      dma = Board.Single_cell;
      invalidation = Driver.Lazy;
      checksum = false;
    }
  in
  let open Osiris_sim in
  let eng = Engine.create () in
  let cfg =
    {
      Host.default_config with
      board =
        { Board.default_config with Board.dma_mode = variant.Receive_side.dma;
          locking };
    }
  in
  let host = Host.create eng machine ~addr:0x0a000002l cfg in
  let payload = Bytes.init (16 * 1024) (fun i -> Char.chr (i land 0xff)) in
  let datagram =
    Osiris_proto.Udp.datagram_image ~src_port:9 ~dst_port:7 ~checksum:false
      payload
  in
  let fragments =
    Osiris_proto.Ip.fragment_images cfg.Host.ip
      ~page_size:machine.Machine.page_size ~src:0x0a000001l ~dst:0x0a000002l
      ~proto:Osiris_proto.Udp.protocol_number datagram
  in
  Board.start_fictitious_source host.Host.board
    ~pdus:(List.map (fun f -> (Host.ip_vci host, f)) fragments)
    ();
  Host.start host;
  let bytes_got = ref 0 in
  Host.new_udp_test_receiver host ~port:7 ~on_msg:(fun ~len ->
      bytes_got := !bytes_got + len);
  let ch = Board.kernel_channel host.Host.board in
  let words q =
    let s = Desc_queue.access_stats q in
    s.Desc_queue.host_reads + s.Desc_queue.host_writes
  in
  let (bytes0, words0, pdus0), (bytes1, words1, pdus1), ns =
    Measure.window eng ~warmup:(Time.ms 40) ~span:(Time.ms 40) (fun () ->
        ( !bytes_got,
          words (Board.rx_queue ch) + words (Board.free_queue ch),
          (Driver.stats host.Host.driver).Driver.pdus_received ))
  in
  ( Report.mbps ~bytes_count:(bytes1 - bytes0) ~ns,
    float_of_int (words1 - words0) /. float_of_int (Int.max 1 (pdus1 - pdus0))
  )

let table () =
  let mk locking label =
    let mbps, words_per_pdu = receive_with locking in
    let rtt =
      Table1.rtt_with_locking ~locking ~machine:Machine.ds5000_200
        ~proto:Table1.Raw_atm ~msg_size:4096 ~rounds:8 ()
    in
    [
      label;
      Printf.sprintf "%.0f" mbps;
      Printf.sprintf "%.1f" words_per_pdu;
      Printf.sprintf "%.0f" rtt;
    ]
  in
  {
    Report.t_title = "2.1.1 ablation: lock-free queues vs spin-locked access";
    header =
      [ "discipline"; "rx Mbps (16KB)"; "host dp-words/PDU"; "RTT 4KB (us)" ];
    rows =
      [ mk Desc_queue.Lock_free "lock-free"; mk Desc_queue.Spin_lock "spin-lock" ];
    t_paper_note =
      "lock-free 1R1W queues maximize concurrency and minimize dual-port \
       loads/stores; locking costs extra accesses and contention stalls";
  }
