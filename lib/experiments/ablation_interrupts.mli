(** §2.1.2 ablation: interrupt coalescing.

    The host/board protocol eliminates per-PDU interrupts: transmit
    completion is signalled by tail-pointer advance, and the receive
    interrupt fires only on the receive queue's empty → non-empty
    transition, so a closely-spaced packet train costs one interrupt. At
    75 µs per interrupt (vs 200 µs of UDP/IP service time) this is a large
    fraction of the receive budget.

    The experiment sends bursts of PDUs with varying spacing and reports
    interrupts taken per PDU: near 1 for widely spaced packets (low latency
    still matters there), far below 1 for trains. *)

val run : ?burst:int -> spacing_us:int -> unit -> int * int
(** [(pdus_received, interrupts_taken)] for one burst of [burst]
    (default 64) 1 KB PDUs between two DECstation 5000/200s with the
    given inter-send spacing. *)

val table : unit -> Report.table
