(** Incast contention through the cell-switch fabric.

    N senders on a {!Osiris_core.Network.star} topology blast one
    receiver in near-synchronized rounds, overloading the receiver port's
    finite output queue on the switch. Every payload byte is a pure
    function of the message index (shared with {!Fault_soak}), so
    deliveries are verified byte-exact; every loss must be explained by
    counted switch drops and absorbed by the receiver's recovery
    machinery (reassembly timeout sweeps, sequence aborts, CRC rejects) —
    the run reports a violation if PDUs vanish without that evidence or
    if the {!Osiris_core.Network.audit} of the whole fabric (switch,
    every link, every host at quiescence) is not clean. *)

type outcome = {
  queue_cells : int;  (** switch output-queue capacity used for the run *)
  offered_pdus : int;
  delivered_pdus : int;
  corrupted_delivered : int;  (** must be 0: CRC must catch damage *)
  goodput_mbps : float;  (** byte-verified deliveries only *)
  cells_in : int;  (** cells the switch accepted *)
  switch_dropped : int;  (** overflow + no-route drops *)
  residual_queued : int;  (** must be 0 after the grace period *)
  timeout_aborts : int;  (** receiver driver timeout-marker chains *)
  reassembly_timeouts : int;  (** receiver board sweeper firings *)
  reassembly_errors : int;
  pdus_dropped_no_buffer : int;
  violations : string list;  (** must be empty *)
}

val run :
  ?senders:int ->
  ?queue_cells:int ->
  ?rounds:int ->
  ?seed:int ->
  unit ->
  outcome
(** One seeded incast run between DECstation 5000/200s: [senders]
    (default 3) each send [rounds] (default 10) PDUs of 2 KB to host 0,
    one per 400 µs, with sender [i] offset by [i * 30 µs]. Recovery
    timers are enabled on every host (2 ms reassembly timeout, 500 µs
    interrupt re-assert); an 8 ms grace runs after the last send so they
    can drain. *)

val figure_goodput_vs_queue : unit -> Report.figure
(** The BENCH.json curve: offered vs delivered PDUs, receiver timeout
    aborts, switch cell drops and byte-verified goodput as the output
    queue grows from burst-crushing to burst-absorbing. Raises on any
    accounting violation — the conservation contract is load-bearing,
    not advisory. *)
