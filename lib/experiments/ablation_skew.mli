(** §2.6 ablation: striping skew and its consequences.

    Cells striped over four links arrive in order per link but skewed
    across links. The experiment sweeps the inter-link skew and reports,
    for each reassembly strategy:

    - whether transfers still complete correctly (per-link and
      sequence-number reassembly tolerate skew; in-order reassembly
      corrupts PDUs, which the AAL5-style CRC then catches);
    - the receive-side double-cell combining rate — skew destroys the
      probability that two successively received cells are contiguous in
      memory, which is the §2.6 "serious disadvantage". *)

type result = {
  strategy : string;
  skew_us : int;
  delivered : int;
  crc_drops : int;
  reassembly_errors : int;
  combined_fraction : float;  (** combined DMAs / DMA-eligible cell pairs *)
}

val run :
  strategy:Osiris_atm.Sar.strategy -> skew_us:int -> ?pdus:int -> unit -> result

val table : unit -> Report.table
