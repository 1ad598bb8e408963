(* A multimedia scenario (the paper's §3.2 motivation: "in many
   distributed applications, such as multimedia, network I/O is a frequent
   and common component"): a video-like flow with a latency budget shares
   the receiving host with a bulk background flow.

   Both flows get their own application device channel, so the adaptor
   demultiplexes them onto separate buffer pools: under overload the bulk
   flow is dropped on the board while the video flow keeps its frame rate
   — the §3.1 priority behaviour, end to end.

   Run with: dune exec examples/multimedia_priority.exe *)

open Osiris_core
module Adc = Osiris_adc.Adc
module Msg = Osiris_xkernel.Msg
module Engine = Osiris_sim.Engine
module Time = Osiris_sim.Time
module Board = Osiris_board.Board
module Demux = Osiris_xkernel.Demux
module Cpu = Osiris_os.Cpu
module Stats = Osiris_util.Stats

let frame_size = 8 * 1024
let bulk_pdu = 16 * 1024

let () =
  let eng = Engine.create () in
  let host =
    Host.create eng Machine.ds5000_200 ~addr:0x0a000002l Host.default_config
  in
  (* The video application: high traffic priority, high thread priority. *)
  let video = Adc.open_ host ~priority:0 ~cpu_priority:5 () in
  (* The bulk consumer: background priority and expensive processing. *)
  let bulk = Adc.open_ host ~priority:2 ~cpu_priority:15 () in
  let vci_video = 50 and vci_bulk = 51 in
  Board.bind_vci host.Host.board ~vci:vci_video (Adc.channel video);
  Board.bind_vci host.Host.board ~vci:vci_bulk (Adc.channel bulk);

  let frames = ref 0 and bulk_bytes = ref 0 in
  let jitter = Stats.create () in
  let last_frame = ref 0 in
  Demux.bind (Adc.demux video) ~vci:vci_video ~name:"video"
    (fun ~vci:_ msg ->
      incr frames;
      if !last_frame > 0 then
        Stats.add jitter
          (Time.to_float_us (Engine.now eng - !last_frame));
      last_frame := Engine.now eng;
      Msg.dispose msg);
  Demux.bind (Adc.demux bulk) ~vci:vci_bulk ~name:"bulk" (fun ~vci:_ msg ->
      bulk_bytes := !bulk_bytes + Msg.length msg;
      (* bulk post-processing, in scheduler quanta *)
      for _ = 1 to 10 do
        Cpu.consume_prio host.Host.cpu ~priority:20 (Time.us 100)
      done;
      Msg.dispose msg);

  (* Offered traffic: a paced frame every 500 us on the video VCI, bulk
     PDUs as fast as the link carries them on the other. *)
  let frame = Bytes.init frame_size (fun i -> Char.chr (i land 0xff)) in
  let bulk_data = Bytes.init bulk_pdu (fun i -> Char.chr (i land 0xff)) in
  (* Interleave: one frame per N bulk PDUs to approximate both schedules:
     frame every 500us; bulk pdu every ~286us at link rate. *)
  Board.start_fictitious_source host.Host.board
    ~pdus:[ (vci_video, frame); (vci_bulk, bulk_data); (vci_bulk, bulk_data) ]
    ();
  Host.start host;

  let horizon = Time.ms 100 in
  Engine.run ~until:horizon eng;

  let drops = (Board.stats host.Host.board).Board.pdus_dropped_no_buffer in
  Printf.printf "over %.0f ms simulated:\n" (Time.to_float_us horizon /. 1e3);
  Printf.printf "  video: %d frames delivered, inter-frame %s\n" !frames
    (Format.asprintf "%a" (fun fmt s ->
         Format.fprintf fmt "mean %.0fus sd %.0fus max %.0fus"
           (Stats.mean s) (Stats.stddev s) (Stats.max s)) jitter);
  Printf.printf "  bulk: %.1f Mbps delivered, %d PDUs dropped on the board\n"
    (Osiris_experiments.Report.mbps ~bytes_count:!bulk_bytes ~ns:horizon)
    drops;
  Printf.printf
    "the board dropped overload before it cost the host anything; the \
     video flow kept its cadence\n"
