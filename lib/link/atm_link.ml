open Osiris_sim
module Cell = Osiris_atm.Cell
module Rng = Osiris_util.Rng
module Metrics = Osiris_obs.Metrics
module Trace = Osiris_obs.Trace

type config = { nlinks : int; link_rate_bps : int; skew : Time.t array }

let default_config =
  { nlinks = 4; link_rate_bps = 155_520_000; skew = [| 0; 0; 0; 0 |] }

(* A cell propagates for 1 us; each channel's output FIFO books two
   cells ahead, and the receiving adaptor's input FIFO holds 32. *)
let propagation_delay = Time.us 1
let tx_fifo_cells = 2
let rx_fifo_cells = 32

(* Fills the receive mailbox's empty slots. *)
let no_arrival =
  ( 0,
    Cell.make ~vci:0 ~seq:0 ~eom:false ~last_of_pdu:false
      (Bytes.make Cell.data_size '\000') )

type stats = {
  cells_sent : int;
  cells_delivered : int;
  dropped_fifo : int;
  dropped_net : int;
  corrupted : int;
  reordered : int;
  duplicated : int;
  header_corrupted : int;
  dropped_link_down : int;
}

(* Registry handles behind [stats]; [stats t] snapshots them. *)
type m = {
  m_sent : Metrics.counter;
  m_delivered : Metrics.counter;
  m_dropped_fifo : Metrics.counter;
  m_dropped_net : Metrics.counter;
  m_corrupted : Metrics.counter;
  m_reordered : Metrics.counter;
  m_duplicated : Metrics.counter;
  m_header_corrupted : Metrics.counter;
  m_dropped_link_down : Metrics.counter;
  m_link_transitions : Metrics.counter;
}

type t = {
  eng : Engine.t;
  rng : Rng.t;
  cfg : config;
  cell_time : Time.t;
  mutable send_seq : int;
  mutable tx_channel : int;
      (* channel of the cell numbered [send_seq - 1] while it waits
         between [send_wait] and [book]; -1 when none does *)
  mutable max_delivered_seq : int;
  busy_until : Time.t array; (* per-channel serializer booking *)
  last_delivery : Time.t array; (* per-channel FIFO enforcement *)
  inbox : (int * Cell.t) Mailbox.t;
  (* Fault-injection state, set at runtime (Osiris_fault.Injector); a
     link starts with no faults. *)
  mutable drop_prob : float;
  mutable corrupt_prob : float;
  mutable dup_prob : float;
  mutable corrupt_header_prob : float;
  link_up : bool array; (* per-channel carrier state *)
  mutable live : int array; (* channels with carrier, ascending *)
  mutable rx_limit : int; (* rx FIFO squeeze (<= rx_fifo_cells) *)
  mutable cell_filter : (int -> Cell.t -> bool) option;
  mutable on_change : (unit -> unit) list;
  m : m;
}

let create eng rng cfg =
  if cfg.nlinks < 1 then invalid_arg "Atm_link.create: nlinks must be >= 1";
  if Array.length cfg.skew <> cfg.nlinks then
    invalid_arg "Atm_link.create: skew array must have nlinks entries";
  let cell_time =
    Cell.wire_size * 8 * 1_000_000_000 / cfg.link_rate_bps
  in
  {
    eng;
    rng;
    cfg;
    cell_time;
    send_seq = 0;
    tx_channel = -1;
    max_delivered_seq = -1;
    busy_until = Array.make cfg.nlinks 0;
    last_delivery = Array.make cfg.nlinks 0;
    inbox = Mailbox.create eng ~capacity:rx_fifo_cells ~empty:no_arrival ();
    drop_prob = 0.0;
    corrupt_prob = 0.0;
    dup_prob = 0.0;
    corrupt_header_prob = 0.0;
    link_up = Array.make cfg.nlinks true;
    live = Array.init cfg.nlinks (fun i -> i);
    rx_limit = rx_fifo_cells;
    cell_filter = None;
    on_change = [];
    m =
      {
        m_sent = Metrics.counter "link.cells_sent";
        m_delivered = Metrics.counter "link.cells_delivered";
        m_dropped_fifo = Metrics.counter "link.dropped_fifo";
        m_dropped_net = Metrics.counter "link.dropped_net";
        m_corrupted = Metrics.counter "link.corrupted";
        m_reordered = Metrics.counter "link.reordered";
        m_duplicated = Metrics.counter "link.duplicated";
        m_header_corrupted = Metrics.counter "link.header_corrupted";
        m_dropped_link_down = Metrics.counter "link.dropped_link_down";
        m_link_transitions = Metrics.counter "link.link_transitions";
      };
  }

let config t = t.cfg

(* ---------------------------------------------------------------- *)
(* Runtime fault knobs.                                             *)

let set_drop_prob t p = t.drop_prob <- p
let set_corrupt_prob t p = t.corrupt_prob <- p
let set_dup_prob t p = t.dup_prob <- p
let set_corrupt_header_prob t p = t.corrupt_header_prob <- p

let set_rx_fifo_limit t n =
  t.rx_limit <- Int.max 1 (Int.min n rx_fifo_cells)

let set_cell_filter t f = t.cell_filter <- f
let on_link_change t f = t.on_change <- f :: t.on_change
let nlive t = Array.length t.live
let live_links t = Array.to_list t.live

let set_link_state t ~link up =
  if link < 0 || link >= t.cfg.nlinks then
    invalid_arg "Atm_link.set_link_state: link out of range";
  if t.link_up.(link) <> up then begin
    t.link_up.(link) <- up;
    t.live <-
      Array.of_list
        (List.filter
           (fun i -> t.link_up.(i))
           (List.init t.cfg.nlinks (fun i -> i)));
    Metrics.incr t.m.m_link_transitions;
    Trace.emitf Trace.Fault ~now:(Engine.now t.eng) "link %d %s (%d/%d live)"
      link
      (if up then "up" else "down")
      (Array.length t.live) t.cfg.nlinks;
    List.iter (fun f -> f ()) t.on_change
  end

let deliver t link seq ~dup cell =
  if not t.link_up.(link) then begin
    (* Carrier dropped while the cell was in flight. *)
    Metrics.incr t.m.m_dropped_link_down;
    if Trace.enabled Trace.Fault then
      (Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
         "cell lost to dead link %d trunk_seq=%d" link seq
      [@osiris.alloc_ok "trace message: built only when fault tracing is on"])
  end
  else
    match t.cell_filter with
    | Some f
      when not
             (f link cell
             [@osiris.alloc_ok
               "a fault plan's cell filter, installed only by fault \
                injection"]) ->
        Metrics.incr t.m.m_dropped_net;
        if Trace.enabled Trace.Fault then
          (Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
             "cell filtered on link %d trunk_seq=%d" link seq
          [@osiris.alloc_ok
            "trace message: built only when fault tracing is on"])
    | _ ->
        if dup then Metrics.incr t.m.m_duplicated
        else if seq > t.max_delivered_seq then t.max_delivered_seq <- seq
        else begin
          Metrics.incr t.m.m_reordered;
          if Trace.enabled Trace.Link then
            (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
               "reordered arrival link=%d trunk_seq=%d" link seq
            [@osiris.alloc_ok
              "trace message: built only when link tracing is on"])
        end;
        if
          Mailbox.length t.inbox < t.rx_limit
          && Mailbox.try_send t.inbox
               ((link, cell)
               [@osiris.alloc_ok "the (link, cell) pair the receive FIFO \
                                  holds"])
        then Metrics.incr t.m.m_delivered
        else begin
          Metrics.incr t.m.m_dropped_fifo;
          if Trace.enabled Trace.Link then
            (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
               "rx fifo overflow link=%d trunk_seq=%d" link seq
            [@osiris.alloc_ok
              "trace message: built only when link tracing is on"])
        end

(* Sending is split around its backpressure wait, so a fiber
   ([Process.sleep]) and a callback agent ([send_then]) wait the same
   way and book through the same code. *)
let send_wait t cell =
  (* Cell k of a PDU travels on link k mod n (paper 2.6): the link choice
     is a deterministic function of the cell's AAL sequence number, so the
     receiver's per-link reassembly can reconstruct each cell's position
     from (link, per-link arrival index) alone, even when PDUs of several
     VCs are interleaved on the striped trunk. Under link failure the
     stripe narrows to the surviving channels (in ascending order), and
     the sender's segmentation is expected to use [nlive] for the stripe
     width so both ends agree. *)
  if t.tx_channel >= 0 then
    (invalid_arg "Atm_link.send_wait: the previous cell is not booked"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  let nlive = Array.length t.live in
  let seq = t.send_seq in
  t.send_seq <- seq + 1;
  Metrics.incr t.m.m_sent;
  if nlive = 0 then begin
    Metrics.incr t.m.m_dropped_link_down;
    (Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
       "cell lost: all links down trunk_seq=%d" seq
    [@osiris.alloc_ok "fault diagnostics: format value, never on a live link"]);
    0
  end
  else begin
    let l = t.live.(cell.Cell.seq mod nlive) in
    if Trace.enabled Trace.Link then
      (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
         "cell vci=%d seq=%d -> link %d" cell.Cell.vci cell.Cell.seq l
      [@osiris.alloc_ok "trace message: built only when link tracing is on"]);
    t.tx_channel <- l;
    (* Backpressure: the channel's output FIFO lets us book at most
       [tx_fifo_cells] cell-times ahead of the present. *)
    let horizon = Engine.now t.eng + (tx_fifo_cells * t.cell_time) in
    if t.busy_until.(l) > horizon then t.busy_until.(l) - horizon else 0
  end

(* Header corruption mangles the VCI (misdelivery to another VC) or the
   AAL sequence number (mis-striping) rather than the payload; both
   escapes are caught downstream — unknown-VC drop or CRC. *)
let corrupt_header t cell seq =
  Metrics.incr t.m.m_header_corrupted;
  let flip = 1 + Rng.int t.rng 7 in
  if Rng.bool t.rng then begin
    Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
      "header corrupt vci %d -> %d trunk_seq=%d" cell.Cell.vci
      (cell.Cell.vci lxor flip) seq;
    { cell with Cell.vci = cell.Cell.vci lxor flip }
  end
  else begin
    Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
      "header corrupt seq %d -> %d trunk_seq=%d" cell.Cell.seq
      (cell.Cell.seq lxor flip) seq;
    { cell with Cell.seq = cell.Cell.seq lxor flip }
  end

(* A duplicated cell follows its original on the same channel one
   cell-time later, respecting per-channel FIFO order. *)
let duplicate t l seq cell =
  let arrival = t.last_delivery.(l) + t.cell_time in
  t.last_delivery.(l) <- arrival;
  Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
    "cell duplicated on link %d trunk_seq=%d" l seq;
  ignore
    (Engine.schedule_at t.eng ~time:arrival (fun () ->
         deliver t l seq ~dup:true cell))

let book t cell =
  let l = t.tx_channel in
  if l >= 0 then begin
    t.tx_channel <- -1;
    let seq = t.send_seq - 1 in
    let now = Engine.now t.eng in
    let start = Int.max now t.busy_until.(l) in
    let finish = start + t.cell_time in
    t.busy_until.(l) <- finish;
    if Rng.bernoulli t.rng t.drop_prob then begin
      Metrics.incr t.m.m_dropped_net;
      if Trace.enabled Trace.Link then
        (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
           "cell lost on link %d trunk_seq=%d" l seq
        [@osiris.alloc_ok "trace message: built only when link tracing is on"])
    end
    else begin
      let cell =
        if Rng.bernoulli t.rng t.corrupt_prob then begin
          Metrics.incr t.m.m_corrupted;
          (Cell.corrupt cell ~byte:(Rng.int t.rng Cell.data_size)
          [@osiris.alloc_ok "fault injection: the corrupted copy of the cell"])
        end
        else cell
      in
      (* Guarded so the draw sequence is unchanged when disabled. *)
      let cell =
        if
          t.corrupt_header_prob > 0.0
          && Rng.bernoulli t.rng t.corrupt_header_prob
        then
          (corrupt_header t cell seq
          [@osiris.alloc_ok "fault injection: the mangled copy of the cell"])
        else cell
      in
      let arrival = finish + propagation_delay + t.cfg.skew.(l) in
      (* Cells on one channel arrive in order and no faster than the wire. *)
      let arrival = Int.max arrival (t.last_delivery.(l) + t.cell_time) in
      t.last_delivery.(l) <- arrival;
      ignore
        (Engine.schedule_at t.eng ~time:arrival (fun () ->
             deliver t l seq ~dup:false cell)
        [@osiris.alloc_ok "the arrival event: its closure and handle"]);
      if t.dup_prob > 0.0 && Rng.bernoulli t.rng t.dup_prob then
        (duplicate t l seq cell
        [@osiris.alloc_ok "fault injection: the duplicate's arrival event"])
    end
  end

let send_then t a cell k =
  let wait = send_wait t cell in
  if wait = 0 then begin
    book t cell;
    k ()
  end
  else
    Process.sleep_then a wait (fun () ->
        book t cell;
        k ())

let recv_then t a k = Mailbox.recv_then t.inbox a k
let recv t = Mailbox.recv t.inbox

let stats t : stats =
  {
    cells_sent = Metrics.counter_value t.m.m_sent;
    cells_delivered = Metrics.counter_value t.m.m_delivered;
    dropped_fifo = Metrics.counter_value t.m.m_dropped_fifo;
    dropped_net = Metrics.counter_value t.m.m_dropped_net;
    corrupted = Metrics.counter_value t.m.m_corrupted;
    reordered = Metrics.counter_value t.m.m_reordered;
    duplicated = Metrics.counter_value t.m.m_duplicated;
    header_corrupted = Metrics.counter_value t.m.m_header_corrupted;
    dropped_link_down = Metrics.counter_value t.m.m_dropped_link_down;
  }

(* Every cell sent (plus every duplicate the fault model manufactures)
   must land in exactly one disposition bucket once the trunk drains:
   delivered into the rx mailbox, dropped at the full fifo, eaten by the
   network (drop draw or cell filter), or lost to a dead link.
   Corruption, reordering and header mangling tag a cell without
   changing its disposition, so they do not appear in the equation. *)
let offered t =
  let s = stats t in
  s.cells_sent + s.duplicated

let conservation t =
  let s = stats t in
  [
    ("cells_delivered", s.cells_delivered);
    ("dropped_fifo", s.dropped_fifo);
    ("dropped_net", s.dropped_net);
    ("dropped_link_down", s.dropped_link_down);
  ]
