(** Figure 4: transmit-side UDP/IP throughput.

    The host queues UDP datagrams as fast as the driver accepts them
    (suspending on a full transmit queue, §2.1.2); the outgoing striped
    link feeds a pure sink, so only the sending host is measured. The
    paper's plateau of ~325 Mb/s is set by single-ATM-cell DMA overhead on
    the TURBOchannel, so the board runs single-cell DMA here (the
    longer-transfer hardware change was "underway" at the time). *)

val throughput :
  machine:Osiris_core.Machine.t ->
  checksum:bool ->
  msg_size:int ->
  ?window_ms:int ->
  unit ->
  float
(** Sent UDP payload Mb/s over [window_ms] (default 60) after warm-up,
    with single-cell transmit DMA. *)

val figure4 : unit -> Report.figure
(** The paper's three curves: 3000/600, 3000/600 + UDP-CS, 5000/200. *)
