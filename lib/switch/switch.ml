module Engine = Osiris_sim.Engine
module Process = Osiris_sim.Process
module Signal = Osiris_sim.Signal
module Time = Osiris_sim.Time
module Trace = Osiris_obs.Trace
module Cell = Osiris_atm.Cell
module Atm_link = Osiris_link.Atm_link
module Metrics = Osiris_obs.Metrics
module Ctable = Osiris_classify.Table

type config = {
  nports : int;
  queue_cells : int;
  mark_threshold : int;
  epd_reserve : int;
}

(* The per-cell switching latency, about one OC-3 cell time. *)
let forward_latency = Time.us 2

let default_config =
  { nports = 4; queue_cells = 32; mark_threshold = 0; epd_reserve = 0 }

(* Placeholder stored in vacated ring slots so forwarded cells are not
   pinned by the preallocated arrays. *)
let no_cell =
  Cell.make ~vci:0 ~seq:0 ~eom:false ~last_of_pdu:false
    (Bytes.make Cell.data_size '\000')

(* The output queue is a preallocated ring: enqueue and dequeue allocate
   nothing, and admission never lets it overflow. *)
type port = {
  mutable ingress : Atm_link.t option;
  mutable egress : Atm_link.t option;
  ring : Cell.t array;
  mutable q_head : int;
  mutable q_len : int;
  mutable reserved : int;
      (* cells of queue capacity held back for PDUs already admitted in
         packet-discard mode; occupancy + reserved <= queue_cells always *)
  mutable up : bool;
  out_nonempty : Signal.t;
}

(* Packet-discard (EPD/PPD) bookkeeping, keyed by packed
   (in_port, in_vci): the admission verdict for the PDU currently
   arriving on that input VC. A verdict [>= 0] means admitted with that
   many reserved cells still unclaimed ([Pass r]); [shed] (-1) means
   refused at its first cell (early packet discard) or cut off mid-PDU
   (partial packet discard), every remaining cell dropped. Plain ints —
   like the packed routing values — so the per-cell admission lookup
   allocates nothing (a [Pass of int] box plus a tuple key cost two
   allocations per cell; R5 flagged both). *)
let shed = -1

(* Routing keys and values are packed [(port lsl 16) lor vci]: VCIs are
   validated to 16 bits at [add_route], so the encoding is lossless and
   the per-cell [Hashtbl.find] hashes an immediate int instead of
   allocating a tuple key per cell. *)
let pack port vci = (port lsl 16) lor vci

type stats = {
  cells_in : int;
  forwarded : int;
  dropped_overflow : int;
  dropped_no_route : int;
  dropped_epd : int;
  max_occupancy : int;
  marked : int;
  marked_forwarded : int;
}

type t = {
  eng : Engine.t;
  cfg : config;
  sw_name : string;
  ports : port array;
  routes : int Ctable.t; (* pack in_port in_vci → pack out ... *)
  pdus : int Ctable.t; (* pack in_port in_vci → verdict *)
  mutable queued : int; (* total logical occupancy, all output ports *)
  mutable max_occupancy : int; (* high-water mark of [queued] *)
  mutable marked_queued : int; (* marked cells among [queued] *)
  mutable marked_forwarded : int;
  (* Registry handles: the switch's only tally of each cell event;
     [stats t] reads them back. *)
  m_in : Metrics.counter;
  m_fwd : Metrics.counter;
  m_drop_ovf : Metrics.counter;
  m_drop_route : Metrics.counter;
  m_drop_epd : Metrics.counter;
  m_marked : Metrics.counter;
  mutable started : bool;
}

let occupancy t = t.queued

let create eng ?(name = "sw") cfg =
  if cfg.nports < 1 then invalid_arg "Switch.create: nports < 1";
  if cfg.queue_cells < 1 then invalid_arg "Switch.create: queue_cells < 1";
  if cfg.mark_threshold < 0 || cfg.mark_threshold > cfg.queue_cells then
    invalid_arg "Switch.create: mark_threshold out of range";
  if cfg.epd_reserve < 0 || cfg.epd_reserve > cfg.queue_cells then
    invalid_arg "Switch.create: epd_reserve out of range";
  let ports =
    Array.init cfg.nports (fun _ ->
        {
          ingress = None;
          egress = None;
          ring = Array.make cfg.queue_cells no_cell;
          q_head = 0;
          q_len = 0;
          reserved = 0;
          up = true;
          out_nonempty = Signal.create eng;
        })
  in
  {
    eng;
    cfg;
    sw_name = name;
    ports;
    (* Dummy 0 is a routing value / verdict shape, never returned: the
       empty sentinel lives in the key array. *)
    routes = Ctable.create ~dummy:0 32;
    pdus = Ctable.create ~dummy:0 32;
    queued = 0;
    max_occupancy = 0;
    marked_queued = 0;
    marked_forwarded = 0;
    m_in = Metrics.counter "switch.cells_in";
    m_fwd = Metrics.counter "switch.forwarded";
    m_drop_ovf = Metrics.counter "switch.dropped_overflow";
    m_drop_route = Metrics.counter "switch.dropped_no_route";
    m_drop_epd = Metrics.counter "switch.dropped_epd";
    m_marked = Metrics.counter "switch.marked";
    started = false;
  }

let config t = t.cfg

let stats t =
  {
    cells_in = Metrics.counter_value t.m_in;
    forwarded = Metrics.counter_value t.m_fwd;
    dropped_overflow = Metrics.counter_value t.m_drop_ovf;
    dropped_no_route = Metrics.counter_value t.m_drop_route;
    dropped_epd = Metrics.counter_value t.m_drop_epd;
    max_occupancy = t.max_occupancy;
    marked = Metrics.counter_value t.m_marked;
    marked_forwarded = t.marked_forwarded;
  }

let check_port t fn port =
  if port < 0 || port >= t.cfg.nports then
    (invalid_arg (Printf.sprintf "Switch.%s: port %d out of range" fn port)
    [@osiris.alloc_ok "cold error path: raises, never returns"])

let attach_port t ~port ~ingress ~egress =
  check_port t "attach_port" port;
  if t.started then invalid_arg "Switch.attach_port: switch already started";
  let p = t.ports.(port) in
  if p.ingress <> None || p.egress <> None then
    invalid_arg (Printf.sprintf "Switch.attach_port: port %d in use" port);
  p.ingress <- Some ingress;
  p.egress <- Some egress

let add_route t ~in_port ~in_vci ~out_port ~out_vci =
  check_port t "add_route" in_port;
  check_port t "add_route" out_port;
  if in_vci < 0 || in_vci > 0xffff || out_vci < 0 || out_vci > 0xffff then
    invalid_arg "Switch.add_route: vci out of range";
  Ctable.add t.routes (pack in_port in_vci) (pack out_port out_vci)

let route t ~in_port ~in_vci =
  match Ctable.find t.routes (pack in_port in_vci) with
  | None -> None
  | Some rv -> Some (rv lsr 16, rv land 0xffff)

(* Routing-lookup cost accounting (demux_scale): probe statistics of the
   per-cell classification step, and the table's analytic footprint. *)
let route_stats t = Ctable.probe_stats t.routes
let reset_route_stats t = Ctable.reset_probe_stats t.routes
let nroutes t = Ctable.length t.routes

let route_check t =
  List.map (fun s -> "switch routes: " ^ s) (Ctable.check t.routes)
  @ List.map (fun s -> "switch pdus: " ^ s) (Ctable.check t.pdus)

let port_occupancy t ~port =
  check_port t "port_occupancy" port;
  t.ports.(port).q_len

let ring_push p cell =
  let cap = Array.length p.ring in
  let i = p.q_head + p.q_len in
  p.ring.(if i >= cap then i - cap else i) <- cell;
  p.q_len <- p.q_len + 1

let ring_take p =
  let cell = p.ring.(p.q_head) in
  p.ring.(p.q_head) <- no_cell;
  p.q_head <- (if p.q_head + 1 = Array.length p.ring then 0 else p.q_head + 1);
  p.q_len <- p.q_len - 1;
  cell

let enqueue t p ~out_vci cell =
  (* ECN-like congestion signal: a cell admitted while the output
     queue already stands at [mark_threshold] or deeper gets the
     congestion bit, so the receiver learns of the standing queue
     before it overflows (0 disables marking). Marking happens at
     admission, never after: once a cell is queued marked it can
     only leave forwarded, which is what [mark_conservation]
     checks. *)
  let mark =
    t.cfg.mark_threshold > 0 && p.q_len >= t.cfg.mark_threshold
  in
  (* Cells are immutable records shared with in-flight deliveries
     (fault injection can alias one cell across two arrivals), so
     the VCI rewrite and the mark must copy — but only when they
     change anything. *)
  let cell =
    if cell.Cell.vci = out_vci && (cell.Cell.marked || not mark) then cell
    else
      ({ cell with Cell.vci = out_vci; marked = cell.Cell.marked || mark }
      [@osiris.alloc_ok
        "header rewrite must copy: cells are immutable and may be aliased \
         by in-flight deliveries; skipped when nothing changes"])
  in
  if cell.Cell.marked then begin
    t.marked_queued <- t.marked_queued + 1;
    Metrics.incr t.m_marked
  end;
  ring_push p cell;
  t.queued <- t.queued + 1;
  if t.queued > t.max_occupancy then t.max_occupancy <- t.queued;
  (Signal.broadcast p.out_nonempty
  [@osiris.alloc_ok
    "waking the port scheduler resumes suspended processes (engine \
     handles); cost is per wakeup of a sleeping drain loop, not per cell"])

let drop_overflow t out_port (cell : Cell.t) =
  Metrics.incr t.m_drop_ovf;
  (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
     "%s: output queue %d full (%d cells), cell vci %d dropped" t.sw_name
     out_port t.cfg.queue_cells cell.Cell.vci
  [@osiris.alloc_ok
    "drop diagnostics: format value, off in benchmark runs"])

let drop_epd t out_port (cell : Cell.t) ~why =
  Metrics.incr t.m_drop_epd;
  (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
     "%s: %s on output queue %d, cell vci %d seq %d dropped" t.sw_name why
     out_port cell.Cell.vci cell.Cell.seq
  [@osiris.alloc_ok
    "drop diagnostics: format value, off in benchmark runs"])

(* Packet-discard (EPD/PPD) admission, Romanow & Floyd style: the fate of
   a PDU is decided once, at its first cell. Admission requires room for
   [epd_reserve] cells over and above everything queued or already
   promised, and holds that reservation until the PDU's cells claim it
   (releasing any excess at the framing bit), so an admitted PDU of up to
   [epd_reserve] cells can never lose a tail cell to interleaved traffic.
   A PDU refused at its first cell is shed whole — early packet discard —
   and one that outgrows its reservation into a full queue loses its
   remaining cells — partial packet discard. Whole-PDU losses are what
   make the discipline worth its queue space: the receiving board's
   striped reassembly never sees a partial PDU, so a drop costs exactly
   one PDU instead of desynchronizing the VC's stripe phase until a
   reassembly timeout fires. *)
let ingress_cell_epd t ~in_port ~out_port ~out_vci (cell : Cell.t) =
  let p = t.ports.(out_port) in
  let key = pack in_port cell.Cell.vci in
  (* seq 0 always opens a fresh PDU: if the previous PDU's tail was lost
     upstream of the switch, its stale verdict (and reservation) would
     otherwise pin this VC forever. Verdicts are ints ([shed] or a
     non-negative reservation); [min_int] stands for "no verdict". *)
  let state =
    if cell.Cell.seq = 0 then begin
      (match Ctable.find_slot t.pdus key with
      | -1 -> ()
      | s ->
          let r = Ctable.slot_value t.pdus s in
          if r > 0 then p.reserved <- p.reserved - r);
      Ctable.remove t.pdus key;
      min_int
    end
    else
      match Ctable.find_slot t.pdus key with
      | -1 -> min_int
      | s -> Ctable.slot_value t.pdus s
  in
  let last = cell.Cell.last_of_pdu in
  let occ = p.q_len in
  if state = min_int then begin
    (* First cell: admit or shed the whole PDU. *)
    if occ + p.reserved + t.cfg.epd_reserve <= t.cfg.queue_cells then begin
      enqueue t p ~out_vci cell;
      if not last then begin
        let remaining = t.cfg.epd_reserve - 1 in
        p.reserved <- p.reserved + remaining;
        (Ctable.add t.pdus key remaining
        [@osiris.alloc_ok
          "per-PDU bookkeeping: amortized table growth, one insert per \
           open PDU"])
      end
    end
    else begin
      drop_epd t out_port cell ~why:"early packet discard";
      if not last then
        (Ctable.add t.pdus key shed
        [@osiris.alloc_ok "per-PDU bookkeeping, as above"])
    end
  end
  else if state > 0 then begin
    (* Admitted PDU claiming its reservation: room is guaranteed. *)
    let r = state in
    enqueue t p ~out_vci cell;
    p.reserved <- p.reserved - 1;
    if last then begin
      p.reserved <- p.reserved - (r - 1);
      Ctable.remove t.pdus key
    end
    else
      (Ctable.add t.pdus key (r - 1)
      [@osiris.alloc_ok "overwrites the PDU's existing int binding"])
  end
  else if state = 0 then begin
    (* PDU longer than its reservation: take free (unreserved) space
       while it lasts, cut the PDU off (PPD) when it runs out. *)
    if occ + p.reserved < t.cfg.queue_cells then begin
      enqueue t p ~out_vci cell;
      if last then Ctable.remove t.pdus key
    end
    else begin
      drop_epd t out_port cell ~why:"partial packet discard";
      if last then Ctable.remove t.pdus key
      else
        (Ctable.add t.pdus key shed
        [@osiris.alloc_ok "overwrites the PDU's existing int binding"])
    end
  end
  else begin
    (* [shed]: the PDU lost its admission; drop the rest of it. *)
    drop_epd t out_port cell ~why:"packet discard";
    if last then Ctable.remove t.pdus key
  end

let ingress_cell t ~port cell =
  check_port t "ingress_cell" port;
  Metrics.incr t.m_in;
  (* Hashed classification, cost-accounted: this probe sequence is what
     the demux_scale figure charges per forwarded cell. *)
  match Ctable.find_slot t.routes (pack port cell.Cell.vci) with
  | -1 ->
      Metrics.incr t.m_drop_route;
      (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
         "%s: no route for vci %d on port %d, cell dropped" t.sw_name
         cell.Cell.vci port
      [@osiris.alloc_ok
        "drop diagnostics: emitf builds a format value; tracing is off in \
         benchmark runs"])
  | slot ->
      let rv = Ctable.slot_value t.routes slot in
      let out_port = rv lsr 16 and out_vci = rv land 0xffff in
      if t.cfg.epd_reserve > 0 then
        ingress_cell_epd t ~in_port:port ~out_port ~out_vci cell
      else begin
        let p = t.ports.(out_port) in
        if p.q_len >= t.cfg.queue_cells then
          drop_overflow t out_port cell
        else enqueue t p ~out_vci cell
      end

(* The per-cell forwarding commitment: this is the instant the cell
   stops being "queued" and becomes "forwarded" in the conservation
   invariant. *)
let commit_forward t (cell : Cell.t) =
  t.queued <- t.queued - 1;
  if cell.Cell.marked then begin
    t.marked_queued <- t.marked_queued - 1;
    t.marked_forwarded <- t.marked_forwarded + 1
  end;
  Metrics.incr t.m_fwd

let drain_one t ~port =
  check_port t "drain_one" port;
  let p = t.ports.(port) in
  if p.q_len = 0 then None
  else begin
    let cell = ring_take p in
    commit_forward t cell;
    (Some cell
    [@osiris.alloc_ok
      "option box for the synchronous test/explorer surface; the egress \
       agent started by start uses ring_take directly"])
  end

(* Output-port carrier state (the fabric-fault dimension): a down port
   stops draining — arrivals still enqueue and, once the queue stands
   full, overflow-drop, so conservation is untouched. Raising the port
   wakes its scheduler. *)
let set_port_state t ~port up =
  check_port t "set_port_state" port;
  let p = t.ports.(port) in
  if p.up <> up then begin
    p.up <- up;
    Trace.emitf Trace.Link ~now:(Engine.now t.eng) "%s: port %d %s" t.sw_name
      port
      (if up then "up" else "down");
    if up then Signal.broadcast p.out_nonempty
  end

(* The ports are callback agents, not fibers: each step runs to its end
   and names the function that continues it, and the engine events
   are those the two fiber loops they replace scheduled.

   One consumer per ingress link: every arriving cell runs the routing +
   output-enqueue step the instant the link delivers it (input queueing is
   the link's receive FIFO; contention lives in the output queues). *)
let ingress t port link =
  let a = Process.agent t.eng ~name:(Printf.sprintf "%s.in%d" t.sw_name port) in
  let rec on_cell (_ch, cell) =
    ingress_cell t ~port cell;
    Atm_link.recv_then link a on_cell
  in
  Process.start a (fun () -> Atm_link.recv_then link a on_cell)

(* One scheduler per output port, one cell per step: dequeue, hold the
   cell for the fabric's per-cell forwarding latency, then hand it to
   the egress link (whose send models serialization backpressure and
   re-stripes by AAL seq). A down port takes no next cell. The agent's
   state is this record, and its two steps are built once, so a step
   allocates nothing but its engine event. *)
type egress = {
  e_sw : t;
  e_port : port;
  e_link : Atm_link.t;
  e_agent : Process.agent;
  mutable e_cell : Cell.t; (* dequeued, in the forwarding latency *)
  e_step : unit -> unit;
  e_forward : unit -> unit;
}

let egress_step e =
  let p = e.e_port in
  if p.up && p.q_len > 0 then begin
    let cell = ring_take p in
    commit_forward e.e_sw cell;
    e.e_cell <- cell;
    Process.sleep_then e.e_agent forward_latency e.e_forward
  end
  else Signal.wait_then p.out_nonempty e.e_agent e.e_step

let egress_forward e =
  let cell = e.e_cell in
  e.e_cell <- no_cell;
  Atm_link.send_then e.e_link e.e_agent cell e.e_step

let egress t port link =
  let agent =
    Process.agent t.eng ~name:(Printf.sprintf "%s.out%d" t.sw_name port)
  in
  let rec e =
    {
      e_sw = t;
      e_port = t.ports.(port);
      e_link = link;
      e_agent = agent;
      e_cell = no_cell;
      e_step = (fun () -> egress_step e);
      e_forward = (fun () -> egress_forward e);
    }
  in
  Process.start agent e.e_step

let start t =
  if t.started then invalid_arg "Switch.start: already started";
  t.started <- true;
  Array.iteri
    (fun i p ->
      Option.iter (ingress t i) p.ingress;
      Option.iter (egress t i) p.egress)
    t.ports

let conservation t =
  let s = stats t in
  [
    ("forwarded", s.forwarded);
    ("queued", occupancy t);
    ("dropped_overflow", s.dropped_overflow);
    ("dropped_no_route", s.dropped_no_route);
    ("dropped_epd", s.dropped_epd);
  ]

(* Marked cells are admitted marked and can only leave forwarded (there
   is no drop-from-queue path), so at every instant
   marked = marked_forwarded + marked cells still queued. *)
let mark_conservation t =
  let s = stats t in
  [
    ("marked_forwarded", s.marked_forwarded);
    ("marked_queued", t.marked_queued);
  ]
