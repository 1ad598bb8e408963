(** §4 baseline: OSIRIS vs the machines' Ethernet adaptors.

    Table 1's sanity anchor: "The measured latency numbers for 1 byte
    messages are comparable to — and in fact, a bit better than — those
    obtained when using the machines' Ethernet adaptors under otherwise
    identical conditions. This is a reassuring result, since it
    demonstrates that the greater complexity of the OSIRIS adaptor did not
    degrade the latency of short messages."

    The experiment ping-pongs messages over a simulated 10 Mb/s
    LANCE-style Ethernet (per-frame interrupts, receive copies) and over
    the raw OSIRIS path on the same machine model, and reports both — plus
    bulk throughput, where two orders of magnitude separate the
    technologies. *)

val rtt_ethernet :
  machine:Osiris_core.Machine.t -> msg_size:int -> ?rounds:int -> unit -> float
(** Mean Ethernet round-trip time in microseconds. *)

val table : unit -> Report.table
