(** Output-queued ATM cell switch.

    The paper's OSIRIS boards sat on the AURORA testbed behind Sunshine-class
    ATM switches; this module supplies the fabric the reproduction was
    missing so that more than two hosts can contend for a link. The model is
    the classic output-queued switch: each of [nports] ports hosts a pair of
    {!Osiris_link.Atm_link} endpoints (one carrying cells {e into} the
    switch, one carrying cells {e out}), a per-input-port routing table maps
    [(in_port, in_vci)] to [(out_port, out_vci)] — rewriting the VCI as a
    real ATM switch does — and every output port owns a finite cell queue
    drained at one cell per 2 µs, the per-cell switching latency (about
    one OC-3 cell time): the output scheduler holds each dequeued cell
    that long before handing it to the egress link.

    Cells that arrive for a full output queue are dropped and counted
    ([dropped_overflow]), as are cells with no routing entry
    ([dropped_no_route]). Forwarding preserves the AAL sequence number, so
    the egress link's [seq mod nlive] striping re-derives a consistent
    channel assignment and per-link FIFO order survives the hop.

    {b Conservation invariant} (holds at {e every} simulated instant, not
    just at quiescence):
    [cells_in = forwarded + occupancy + dropped_overflow + dropped_no_route].
    A cell is counted [forwarded] when it is committed to the egress pipe
    (dequeued), even while it still serializes onto the output link. The
    counters are registered in the {!Osiris_obs.Metrics} registry under
    [switch.*]. *)

type config = {
  nports : int;  (** number of ports (each bidirectional) *)
  queue_cells : int;  (** per-output-port queue capacity, in cells *)
  mark_threshold : int;
      (** ECN-like congestion marking (DCTCP-style, queue-occupancy
          threshold): a cell admitted to an output queue whose occupancy
          already stands at this many cells or more gets its
          {!Osiris_atm.Cell.t.marked} bit set, so receivers see standing
          congestion before the queue overflows. 0 (the default)
          disables marking; otherwise must be <= [queue_cells]. *)
  epd_reserve : int;
      (** Packet-discard mode (the early/partial packet discard of
          Romanow & Floyd, SIGCOMM '94): 0 (the default) keeps plain
          cell-granularity tail drop; a positive value decides each
          PDU's fate at its {e first} cell ([seq] 0), admitting it only
          when the output queue has this many cells of room beyond
          everything queued or reserved for other admitted PDUs, and
          shedding it whole otherwise. Admitted PDUs hold their unused
          reservation until the framing bit; a PDU that outgrows its
          reservation into a full queue loses its remaining cells
          (partial packet discard, counted like the rest under
          [dropped_epd]). Size it to the largest PDU the experiment
          sends so drops are always whole PDUs — a partial PDU
          desynchronizes the receiving board's striped reassembly until
          its reassembly timeout fires, turning one lost cell into a
          blackout. Must be <= [queue_cells]. *)
}

val default_config : config
(** 4 ports, 32-cell output queues, congestion marking off. One cell
    every 2 µs is about 212 Mb/s of cells, slower than one host's 4-way
    striped sender, so a single host PDU can overflow the default queue:
    on [Network.chain ~n:4] one 6000 B PDU from host 0 to host 3 loses
    31 of its 137 cells at switch 0. A topology that carries host PDUs
    must size [queue_cells] for its bursts, as every figure and the
    switch tests do. *)

type t

val create :
  Osiris_sim.Engine.t -> ?name:string -> config -> t
(** A switch with no ports attached and an empty routing table. [name]
    (default ["sw"]) labels trace output. *)

val config : t -> config

val attach_port :
  t -> port:int -> ingress:Osiris_link.Atm_link.t ->
  egress:Osiris_link.Atm_link.t -> unit
(** Bind port [port]: [ingress] is the link whose receive side the switch
    consumes (host/trunk → switch), [egress] the link the switch transmits
    on (switch → host/trunk). Must be called before {!start}; attaching a
    port twice or out of range raises [Invalid_argument]. *)

val add_route :
  t -> in_port:int -> in_vci:int -> out_port:int -> out_vci:int -> unit
(** Program one routing-table entry. Cells arriving on [in_port] with VCI
    [in_vci] leave on [out_port] rewritten to [out_vci]. Replaces any
    previous entry for [(in_port, in_vci)]; ports must be in range and VCIs
    must fit 16 bits or [Invalid_argument] is raised. *)

val route : t -> in_port:int -> in_vci:int -> (int * int) option
(** Current table entry, as [(out_port, out_vci)]. *)

(** {2 Classification cost accounting}

    Routing runs through an {!Osiris_classify.Table} keyed by packed
    [(in_port, in_vci)]; these expose its per-cell probe statistics,
    its analytic footprint, and its structural audit. *)

val route_stats : t -> Osiris_classify.Table.probe_stats
val reset_route_stats : t -> unit

val nroutes : t -> int
(** Number of programmed routing entries. *)

val route_check : t -> string list
(** Structural invariants of the routing and packet-discard tables.
    Empty = clean. *)

val start : t -> unit
(** Start the per-port forwarding agents (one ingress consumer and one
    output scheduler per attached port), as engine callbacks
    ({!Osiris_sim.Process.agent}) named [<name>.in<i>] and
    [<name>.out<i>]. Idempotent per switch is {e not} supported:
    starting twice raises [Invalid_argument]. *)

val set_port_state : t -> port:int -> bool -> unit
(** Raise ([true]) or cut ([false]) an output port's carrier — the
    fabric-level fault dimension ([swflap#S.P] plans). A down port stops
    draining: cells routed to it still enqueue, and once the queue
    stands full they are overflow-dropped, so the conservation law is
    untouched. The one cell already in the forwarding latency finishes
    and serializes; no further cell leaves the queue until the port is
    raised, which wakes its scheduler. Idempotent. *)

(** {2 Synchronous datapath (tests and the schedule explorer)}

    The two halves of the datapath are exposed directly so tests and
    {!Osiris_check} scenarios can drive enqueue/dequeue interleavings
    without links or processes. The port agents started by {!start} use
    exactly these functions. *)

val ingress_cell : t -> port:int -> Osiris_atm.Cell.t -> unit
(** Run the routing + output-enqueue step for one cell arriving on
    [port]: counts it in, looks up the route, rewrites the VCI and either
    queues it on the output port or counts the drop. *)

val drain_one : t -> port:int -> Osiris_atm.Cell.t option
(** Dequeue the next cell from [port]'s output queue, counting it as
    forwarded; [None] when the queue is empty. Does {e not} apply the
    switching latency or touch the egress link. *)

(** {2 Accounting} *)

type stats = {
  cells_in : int;  (** cells accepted from ingress links *)
  forwarded : int;  (** cells committed to an egress link *)
  dropped_overflow : int;  (** lost to a full output queue *)
  dropped_no_route : int;  (** no routing-table entry *)
  dropped_epd : int;
      (** cells shed by packet-discard admission ([epd_reserve] > 0):
          whole refused PDUs plus the cut-off tails of PDUs that outgrew
          their reservation *)
  max_occupancy : int;
      (** high-water mark of the total queued-cell count *)
  marked : int;
      (** cells admitted with the congestion bit set (threshold marking) *)
  marked_forwarded : int;
      (** marked cells committed to an egress link *)
}

val stats : t -> stats
(** A snapshot. [cells_in], [forwarded], the three drops and [marked]
    are read from this switch's registry handles ([switch.cells_in],
    [switch.forwarded], [switch.dropped_overflow],
    [switch.dropped_no_route], [switch.dropped_epd], [switch.marked]),
    which are their only tally. *)

val occupancy : t -> int
(** Total cells currently queued across all output ports. *)

val port_occupancy : t -> port:int -> int

val conservation : t -> (string * int) list
(** The invariant's parts, for [Osiris_core.Invariants.balance]-style
    checks: [("forwarded", _); ("queued", _); ("dropped_overflow", _);
    ("dropped_no_route", _); ("dropped_epd", _)] — their sum must equal
    [(stats t).cells_in] at every instant. *)

val mark_conservation : t -> (string * int) list
(** The marking side of the conservation law:
    [("marked_forwarded", _); ("marked_queued", _)] — their sum must
    equal [(stats t).marked] at every instant. Marking happens at
    admission (never to an already-queued cell) and a queued cell can
    only leave forwarded, so marked cells are never dropped. *)
