open Osiris_sim
module Host = Osiris_core.Host
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Adc = Osiris_adc.Adc
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg
module Sar = Osiris_atm.Sar
module Cpu = Osiris_os.Cpu

type result = { high_mbps : float; low_mbps : float; board_drops : int }

let pdu_size = 16 * 1024

let run ?(overload = true) () =
  let machine = Machine.ds5000_200 in
  let eng = Engine.create () in
  let cfg = Host.default_config in
  let host = Host.create eng machine ~addr:0x0a000002l cfg in
  (* Two application channels with their own buffer pools. *)
  (* Thread priority follows traffic priority (§3.1): the high channel's
     driver thread preempts the low one's. *)
  let high = Adc.open_ host ~priority:0 ~cpu_priority:5 () in
  let low = Adc.open_ host ~priority:2 ~cpu_priority:15 () in
  let vci_high = 41 and vci_low = 42 in
  Board.bind_vci host.Host.board ~vci:vci_high (Adc.channel high);
  Board.bind_vci host.Host.board ~vci:vci_low (Adc.channel low);
  let high_bytes = ref 0 and low_bytes = ref 0 in
  Demux.bind (Adc.demux high) ~vci:vci_high ~name:"high" (fun ~vci:_ msg ->
      high_bytes := !high_bytes + Msg.length msg;
      Msg.dispose msg);
  Demux.bind (Adc.demux low) ~vci:vci_low ~name:"low" (fun ~vci:_ msg ->
      low_bytes := !low_bytes + Msg.length msg;
      (* An expensive low-priority application: it cannot keep up. Work in
         scheduler-quantum slices at background priority. *)
      for _ = 1 to 25 do
        Cpu.consume_prio host.Host.cpu ~priority:20 (Time.us 100)
      done;
      Msg.dispose msg);
  (* Offered load: alternating PDUs on both VCIs at link rate (high flow
     alone uses < half capacity). *)
  let pdu = Bytes.init pdu_size (fun i -> Char.chr (i land 0xff)) in
  let pdus =
    if overload then [ (vci_high, pdu); (vci_low, pdu) ]
    else [ (vci_high, pdu) ]
  in
  Board.start_fictitious_source host.Host.board ~pdus ();
  Host.start host;
  let h0, h1, ns =
    Measure.window eng ~warmup:(Time.ms 30) ~span:(Time.ms 40) (fun () ->
        !high_bytes)
  in
  {
    high_mbps = Report.mbps ~bytes_count:(h1 - h0) ~ns;
    low_mbps = Report.mbps ~bytes_count:!low_bytes ~ns:(Engine.now eng);
    board_drops = (Board.stats host.Host.board).Board.pdus_dropped_no_buffer;
  }

let table () =
  let alone = run ~overload:false () in
  let loaded = run ~overload:true () in
  {
    Report.t_title =
      "3.1 ablation: priority traffic under receiver overload (per-channel \
       buffer pools)";
    header = [ "scenario"; "high-prio Mbps"; "low-prio Mbps"; "board drops" ];
    rows =
      [
        [
          "high flow alone";
          Printf.sprintf "%.0f" alone.high_mbps;
          "-";
          string_of_int alone.board_drops;
        ];
        [
          "high + overloading low flow";
          Printf.sprintf "%.0f" loaded.high_mbps;
          Printf.sprintf "%.0f" loaded.low_mbps;
          string_of_int loaded.board_drops;
        ];
      ];
    t_paper_note =
      "the adaptor drops the lower-priority flow's PDUs on the board — \
       before they consume any host processing — so the high-priority \
       flow's throughput survives the overload";
  }
