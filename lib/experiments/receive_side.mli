(** Figures 2 and 3: receive-side UDP/IP throughput in isolation.

    The board's receive processor is programmed to generate fictitious —
    but protocol-valid — PDUs as fast as the host absorbs them (capped at
    the striped OC-12 payload rate of 516 Mb/s). The host runs the full
    driver → IP reassembly → UDP path into a sink that touches no data;
    throughput is the UDP payload rate at the sink.

    Figure 2 (DECstation 5000/200): double-cell DMA vs single-cell DMA vs
    single-cell with eager ("pessimistic") cache invalidation.

    Figure 3 (DEC 3000/600): {single, double}-cell DMA × UDP checksumming
    {off, on}. *)

type variant = {
  label : string;
  dma : Osiris_board.Board.dma_mode;
  invalidation : Osiris_core.Driver.invalidation;
  checksum : bool;
}

val throughput :
  machine:Osiris_core.Machine.t ->
  variant:variant ->
  msg_size:int ->
  ?window_ms:int ->
  unit ->
  float
(** Delivered UDP payload Mb/s, measured over [window_ms] (default 60) of
    simulated time after an equal warm-up. *)

val figure2 : unit -> Report.figure
val figure3 : unit -> Report.figure
