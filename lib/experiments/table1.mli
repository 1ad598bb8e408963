(** Table 1: round-trip latencies between two back-to-back hosts.

    "ATM" rows run test programs directly on the OSIRIS device driver
    (raw framed PDUs on a dedicated VCI); "UDP/IP" rows run the same
    ping-pong over the UDP/IP stack with a 16 KB MTU and checksumming off.
    Message sizes 1, 1024, 2048 and 4096 bytes on both machine
    generations. *)

type proto = Raw_atm | Udp_ip

val rtt :
  machine:Osiris_core.Machine.t ->
  proto:proto ->
  msg_size:int ->
  ?rounds:int ->
  unit ->
  float
(** Mean round-trip time in microseconds over [rounds] (default 16)
    ping-pongs, after 4 warm-up rounds. *)

val rtt_with_locking :
  locking:Osiris_board.Desc_queue.locking ->
  machine:Osiris_core.Machine.t ->
  proto:proto ->
  msg_size:int ->
  ?rounds:int ->
  unit ->
  float
(** {!rtt} with the queue-locking discipline overridden (for the §2.1.1
    ablation). *)

val table : unit -> Report.table
(** The full Table 1. *)
