open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Sar = Osiris_atm.Sar
module Atm_link = Osiris_link.Atm_link
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg

type result = {
  strategy : string;
  skew_us : int;
  delivered : int;
  crc_drops : int;
  reassembly_errors : int;
  combined_fraction : float;
}

let run ~strategy ~skew_us ?(pdus = 64) () =
  let eng = Engine.create () in
  let machine = Machine.dec3000_600 in
  let cfg =
    {
      Host.default_config with
      board =
        {
          Board.default_config with
          Board.reassembly = strategy;
          dma_mode = Board.Double_cell;
          (* a fast sender (the completed double-cell transmit hardware)
             so the receive FIFO sees back-to-back cells and combining can
             engage at all *)
          tx_combine_saving_cycles = 18;
        };
    }
  in
  let a = Host.create eng machine ~addr:0x0a000001l cfg in
  let b = Host.create eng machine ~addr:0x0a000002l { cfg with seed = 43 } in
  let link =
    {
      Atm_link.default_config with
      Atm_link.skew =
        [| 0; Time.us skew_us; 2 * Time.us skew_us; 3 * Time.us skew_us |];
    }
  in
  Measure.bind_raw (Network.connect eng ~link a b);
  let delivered = ref 0 in
  Demux.bind b.Host.demux ~vci:Measure.raw_vci ~name:"sink" (fun ~vci:_ msg ->
      incr delivered;
      Msg.dispose msg);
  let pdu_size = 16 * 1024 in
  Process.spawn eng ~name:"source" (fun () ->
      for _ = 1 to pdus do
        Driver.send a.Host.driver ~vci:Measure.raw_vci
          (Msg.alloc a.Host.vs ~len:pdu_size ());
        (* Pace below the receiver's skew-degraded drain rate: the point
           under test is reassembly correctness and the combining rate,
           not receiver overrun (§2.6's throughput cost shows up in the
           combining column). *)
        Process.sleep eng (Time.us 400)
      done);
  Engine.run ~until:(Time.s 2) eng;
  let bstats = Board.stats b.Host.board in
  let dstats = Driver.stats b.Host.driver in
  let eligible = bstats.Board.cells_received / 2 in
  {
    strategy = Format.asprintf "%a" Sar.pp_strategy strategy;
    skew_us;
    delivered = !delivered;
    crc_drops = dstats.Driver.crc_drops;
    reassembly_errors = bstats.Board.reassembly_errors;
    combined_fraction =
      (if eligible = 0 then 0.0
       else float_of_int bstats.Board.combined_dmas /. float_of_int eligible);
  }

let table () =
  let strategies =
    [ Sar.Per_link 4; Sar.Seq_number; Sar.In_order ]
  in
  let rows =
    List.concat_map
      (fun strategy ->
        List.map
          (fun skew_us ->
            let r = run ~strategy ~skew_us () in
            [
              r.strategy;
              string_of_int r.skew_us;
              string_of_int r.delivered;
              string_of_int (r.crc_drops + r.reassembly_errors);
              Printf.sprintf "%.0f%%" (100.0 *. r.combined_fraction);
            ])
          [ 0; 3; 10 ])
      strategies
  in
  {
    Report.t_title =
      "2.6 ablation: reassembly strategy vs inter-link skew (64 x 16KB PDUs)";
    header =
      [ "strategy"; "skew (us)"; "delivered"; "errors"; "combined DMAs" ];
    rows;
    t_paper_note =
      "per-link (and seq-number) reassembly tolerates skew; in-order \
       corrupts under skew (CRC catches it); skew kills the double-cell \
       combining probability";
  }
