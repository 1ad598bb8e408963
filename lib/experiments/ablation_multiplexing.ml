open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Adc = Osiris_adc.Adc
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg

type result = { small_rtt_us : float; bulk_mbps : float }

let run ~mux ?(bulk_pdu = 64 * 1024) () =
  let eng, net =
    Network.pair
      ~config:
        {
          Host.default_config with
          board = { Board.default_config with Board.tx_mux = mux };
        }
      ()
  in
  let a = net.Network.a and b = net.Network.b in
  (* The latency application gets its own channel (same transmit priority
     as the kernel's bulk traffic: the contrast under test is granularity,
     not priority). *)
  let app_a = Adc.open_ a ~priority:0 () in
  let app_b = Adc.open_ b ~priority:0 () in
  Board.set_priority (Adc.channel app_a) 0;
  let vci_small = 50 and vci_bulk = 51 in
  Board.bind_vci a.Host.board ~vci:vci_small (Adc.channel app_a);
  Board.bind_vci b.Host.board ~vci:vci_small (Adc.channel app_b);
  Board.bind_vci b.Host.board ~vci:vci_bulk (Board.kernel_channel b.Host.board);
  (* Make the kernel (bulk) channel equal priority. *)
  Board.set_priority (Board.kernel_channel a.Host.board) 0;
  let bulk_bytes = ref 0 in
  Demux.bind b.Host.demux ~vci:vci_bulk ~name:"bulk" (fun ~vci:_ msg ->
      bulk_bytes := !bulk_bytes + Msg.length msg;
      Msg.dispose msg);
  (* Bulk source: keep the transmit queue busy with large PDUs. *)
  Process.spawn eng ~name:"bulk" (fun () ->
      let rec loop () =
        Driver.send a.Host.driver ~vci:vci_bulk
          (Msg.alloc a.Host.vs ~len:bulk_pdu ());
        loop ()
      in
      loop ());
  (* The first ping waits 2 ms for the bulk flow to saturate. *)
  let small_rtt_us =
    Measure.rtt eng ~settle:(Time.ms 2) ~rounds:12 (fun pong ->
        Demux.bind (Adc.demux app_b) ~vci:vci_small ~name:"echo"
          (fun ~vci msg ->
            let len = Msg.length msg in
            Msg.dispose msg;
            Adc.send app_b ~vci (Msg.alloc (Adc.vspace app_b) ~len ()));
        Demux.bind (Adc.demux app_a) ~vci:vci_small ~name:"pong"
          (fun ~vci:_ msg ->
            Msg.dispose msg;
            pong ());
        fun () ->
          Adc.send app_a ~vci:vci_small (Adc.alloc_msg app_a ~len:64 ()))
  in
  {
    small_rtt_us;
    bulk_mbps = Report.mbps ~bytes_count:!bulk_bytes ~ns:(Engine.now eng);
  }

let table () =
  let fine = run ~mux:Board.Cell_interleave () in
  let coarse = run ~mux:Board.Pdu_at_once () in
  {
    Report.t_title =
      "2.5.1 ablation: transmit multiplexing granularity (64B ping behind \
       64KB bulk PDUs)";
    header = [ "granularity"; "small-msg RTT (us)"; "bulk Mbps" ];
    rows =
      [
        [ "cell interleave"; Printf.sprintf "%.0f" fine.small_rtt_us;
          Printf.sprintf "%.0f" fine.bulk_mbps ];
        [ "PDU at a time"; Printf.sprintf "%.0f" coarse.small_rtt_us;
          Printf.sprintf "%.0f" coarse.bulk_mbps ];
      ];
    t_paper_note =
      "fine-grained multiplexing keeps small-message latency low while a \
       bulk transfer is in progress; PDU-at-a-time makes the ping wait for \
       up to a whole 64KB segmentation (~1.6ms at 325 Mbps)";
  }
