(** Randomized multi-fault soak over the full host-to-host path.

    Each run builds two hosts with recovery machinery enabled (board
    reassembly timeout 2 ms, interrupt re-assert 500 µs), streams raw-VCI
    PDUs whose every byte is a pure function of the message index, and
    applies a seeded {!Osiris_fault.Plan} (cell drop, payload and header
    corruption, duplication, a carrier outage, an rx-FIFO squeeze, and
    lost receive interrupts) to the forward link and receiving board.
    After a fault-free grace period it checks the outcome against the
    robustness contract: goodput above zero, nothing delivered that is
    not byte-identical to a sent PDU, and
    {!Osiris_core.Network.audit_pair} clean at quiescence (both links'
    cell disposition, both hosts' invariants). *)

val fill_pattern : msg:int -> len:int -> Bytes.t

type sink = {
  mutable s_delivered : int;  (** PDUs handed up *)
  mutable s_corrupted : int;
      (** of those, the ones not [msg_size] long or not byte-identical
          to the message their first two bytes name *)
  mutable s_bytes_ok : int;  (** bytes of the byte-identical ones *)
}
(** Delivery counters of a pattern-checked receiver. *)

val sink : unit -> sink

val deliver :
  sink -> msg_size:int -> vci:int -> Osiris_xkernel.Msg.t -> unit
(** [deliver s ~msg_size] is a demux handler: it checks each delivered
    PDU against {!fill_pattern}, counts it in [s] and disposes of it.
    Shared with the incast experiment. *)

type outcome = {
  seed : int;
  plan : string;  (** {!Osiris_fault.Plan.to_string}, for reproduction *)
  corrupted_delivered : int;  (** must be 0: CRC must catch every fault *)
  goodput_mbps : float;  (** byte-verified payload over the whole run *)
  residual_reassemblies : int;  (** must be 0 at quiescence *)
  violations : string list;  (** must be empty *)
}

val run :
  ?seed:int ->
  ?msgs:int ->
  ?horizon:Osiris_sim.Time.t ->
  ?plan:Osiris_fault.Plan.t ->
  unit ->
  outcome
(** One soak iteration between two DECstation 5000/200s, [msgs] 8 KB
    PDUs. [plan] defaults to [Osiris_fault.Plan.random ~seed ~horizon];
    a 10 ms grace runs after the injector is disarmed so timeout sweeps
    and re-asserted interrupts can finish recovery. *)

val figure_goodput_vs_drop : unit -> Report.figure
(** The BENCH.json curve: byte-verified goodput as a whole-run cell-drop
    burst sweeps [0 .. 0.008]. Raises, naming the seed and the drop
    probability, when any run delivers a corrupt PDU or fails the
    {!Osiris_core.Network.audit_pair} audit. *)
