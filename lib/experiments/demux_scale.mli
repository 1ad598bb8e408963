(** Connection-dense demultiplexing sweep: thousands of VCs terminate at
    one receiver, every cell pays a classification lookup, and the
    hashed tables' probe counters are converted to per-cell nanoseconds
    on both paper machines against a linear-scan baseline. *)

type point = {
  nvcs : int;  (** concurrent VCs opened at the receiver *)
  delivered_pdus : int;
  demux : Osiris_classify.Table.probe_stats;
      (** receiver board's VC-classification probes *)
  route : Osiris_classify.Table.probe_stats;
      (** switch routing-table probes *)
  nroutes : int;
  resident_bytes_per_vc : int;  (** demux-table state per live VC *)
  violations : string list;
}

val run : nvcs:int -> unit -> point
(** Open [nvcs] VCs between one DECstation 5000/200 pair, drive one
    web-search-CDF flow per VC, and audit the fabric
    ({!Osiris_core.Network.audit}, both classification tables'
    structure included), every flow's delivery, and bulk-setup
    path-cache behavior. *)

val figure : unit -> Report.figure
(** The BENCH figure: sweeps 64 to 8192 VCs, fails on any violation, on a
    hashed cost ratio above 1.5x between the sweep's ends, or on a
    linear baseline that failed to grow. *)
