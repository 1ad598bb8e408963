open Osiris_sim
module Trace = Osiris_obs.Trace
module Metrics = Osiris_obs.Metrics
module Hist = Osiris_util.Stats.Histogram
module Cell = Osiris_atm.Cell
module Atm_link = Osiris_link.Atm_link
module Sar = Osiris_atm.Sar
module Pbuf = Osiris_mem.Pbuf
module Phys_mem = Osiris_mem.Phys_mem
module Tc = Osiris_bus.Turbochannel
module Ctable = Osiris_classify.Table

type dma_mode = Single_cell | Double_cell

(* Placeholders for the stages' records before their first cell. *)
let no_cell =
  Cell.make ~vci:0 ~seq:0 ~eom:false ~last_of_pdu:false
    (Bytes.make Cell.data_size '\000')

let no_desc = Desc.v ~addr:0 ~len:0 ()

type tx_mux = Cell_interleave | Pdu_at_once

type config = {
  dma_mode : dma_mode;
  tx_mux : tx_mux;
  queue_size : int;
  locking : Desc_queue.locking;
  reassembly : Sar.strategy;
  nlinks : int;
  tx_cycles_per_cell : int;
  rx_cycles_per_cell : int;
  tx_combine_saving_cycles : int;
  reassembly_timeout : Time.t;
  irq_reassert : Time.t;
}

let default_config =
  {
    (* The configuration the paper actually ran hosts with: single-cell
       DMA transmit (the longer-transfer transmit hardware was still
       "underway"); receive-side double-cell DMA is an experiment toggle.
       This also keeps a sender slower than a same-generation receiver
       (325 vs 340 Mb/s on the DECstation), which is what made sustained
       host-to-host trains stable. *)
    dma_mode = Single_cell;
    tx_mux = Cell_interleave;
    queue_size = 64;
    locking = Desc_queue.Lock_free;
    reassembly = Sar.Per_link 4;
    nlinks = 4;
    tx_cycles_per_cell = 27;
    rx_cycles_per_cell = 15;
    tx_combine_saving_cycles = 14;
    (* Both recovery timers default off: enabling them leaves timer events
       in the engine heap, which would shift the quiescence clock of every
       seeded experiment that predates the fault layer. *)
    reassembly_timeout = 0;
    irq_reassert = 0;
  }

(* The adaptor's fixed figures: one dual-port queue page per channel
   and direction, 25 MHz i960s that spend two cycles on each dual-port
   word, and a reassembly window of 8192 cells. *)
let n_channels = 16
let i960_hz = 25_000_000
let queue_word_cycles = 2
let max_pdu_cells = 8192

type interrupt_reason =
  | Rx_nonempty of int
  | Tx_half_empty of int
  | Protection_violation of int

type stats = {
  cells_sent : int;
  cells_received : int;
  pdus_sent : int;
  pdus_received : int;
  dma_tx_transactions : int;
  dma_rx_transactions : int;
  combined_dmas : int;
  boundary_splits : int;
  pdus_dropped_no_buffer : int;
  cells_dropped : int;
  reassembly_errors : int;
  protection_faults : int;
  unknown_vci_cells : int;
  reassembly_timeouts : int;
  restripe_aborts : int;
  interrupts_suppressed : int;
  irq_reasserts : int;
}

(* Registry handles behind [stats]; [stats t] snapshots them. *)
type m = {
  m_cells_sent : Metrics.counter;
  m_cells_received : Metrics.counter;
  m_pdus_sent : Metrics.counter;
  m_pdus_received : Metrics.counter;
  m_dma_tx : Metrics.counter;
  m_dma_rx : Metrics.counter;
  m_combined_dmas : Metrics.counter;
  m_boundary_splits : Metrics.counter;
  m_pdus_dropped_no_buffer : Metrics.counter;
  m_cells_dropped : Metrics.counter;
  m_reassembly_errors : Metrics.counter;
  m_protection_faults : Metrics.counter;
  m_unknown_vci_cells : Metrics.counter;
  m_reassembly_timeouts : Metrics.counter;
  m_restripe_aborts : Metrics.counter;
  m_interrupts_suppressed : Metrics.counter;
  m_irq_reasserts : Metrics.counter;
  m_dma_bytes : Hist.h;  (** sizes of actual receive bus transactions *)
}

let make_board_metrics () =
  {
    m_cells_sent = Metrics.counter "board.tx.cells_sent";
    m_cells_received = Metrics.counter "board.rx.cells_received";
    m_pdus_sent = Metrics.counter "board.tx.pdus_sent";
    m_pdus_received = Metrics.counter "board.rx.pdus_received";
    m_dma_tx = Metrics.counter "board.tx.dma_transactions";
    m_dma_rx = Metrics.counter "board.rx.dma_transactions";
    m_combined_dmas = Metrics.counter "board.rx.combined_dmas";
    m_boundary_splits = Metrics.counter "board.dma.boundary_splits";
    m_pdus_dropped_no_buffer = Metrics.counter "board.rx.pdus_dropped_no_buffer";
    m_cells_dropped = Metrics.counter "board.rx.cells_dropped";
    m_reassembly_errors = Metrics.counter "board.rx.reassembly_errors";
    m_protection_faults = Metrics.counter "board.tx.protection_faults";
    m_unknown_vci_cells = Metrics.counter "board.rx.unknown_vci_cells";
    m_reassembly_timeouts = Metrics.counter "board.rx.reassembly_timeouts";
    m_restripe_aborts = Metrics.counter "board.rx.restripe_aborts";
    m_interrupts_suppressed = Metrics.counter "board.irq.suppressed";
    m_irq_reasserts = Metrics.counter "board.irq.reasserts";
    m_dma_bytes =
      Metrics.histogram "board.rx.dma_span_bytes" ~lo:0. ~hi:128. ~buckets:16;
  }

(* A loaded PDU. Its DMA plan is cut once, at load: [piece_off] holds
   the data offset where each fetchable piece starts — at every
   descriptor and every page boundary (the §2.5.2 boundary stop) —
   followed by [data_len]. A fetch of cells [k, k+n) is one bus
   transaction per piece that [k*44, (k+n)*44) touches. *)
type tx_pdu = {
  cells : Cell.t array;
  data_len : int;
  nchain : int;
  tx_ch : channel;
  piece_off : int array;
  mutable next : int; (* next cell the i960 hands to the DMA engine *)
  mutable cursor : int; (* first piece a later fetch can still touch *)
}

and channel = {
  id : int;
  tx_q : Desc_queue.t;
  free_q : Desc_queue.t;
  rx_q : Desc_queue.t;
  mutable priority : int;
  mutable allowed : Pbuf.t list option;
  mutable txst : tx_pdu option;
  mutable peek_ahead : int; (* descriptors consumed but not yet advanced *)
  mutable reassert_armed : bool; (* rx interrupt watchdog scheduled *)
  mutable reassert_h : Engine.handle option; (* watchdog timer, re-armed in place *)
  mutable free_gated : bool; (* fault injection: free queue yields nothing *)
}

type rxbuf = { bdesc : Desc.t; mutable filled : int; mutable posted : bool }

(* The per-PDU buffer side table. Indices are dense (buffer 0, 1, ... of
   the PDU being reassembled), so a growable option array replaces the
   old per-VC [Hashtbl]: two words per slot instead of a bucket chain,
   and a reset that just refills the array. At thousands of VCs this is
   most of the per-VC resident state. *)
type bufset = { mutable bs_slots : rxbuf option array; mutable bs_set : int }

let bufs_create () = { bs_slots = Array.make 4 None; bs_set = 0 }

let bufs_get bs idx =
  if idx < Array.length bs.bs_slots then bs.bs_slots.(idx) else None

let bufs_set bs idx b =
  let cap = Array.length bs.bs_slots in
  if idx >= cap then begin
    let bigger = Array.make (Int.max (idx + 1) (cap * 2)) None in
    Array.blit bs.bs_slots 0 bigger 0 cap;
    bs.bs_slots <- bigger
  end;
  if bs.bs_slots.(idx) = None then bs.bs_set <- bs.bs_set + 1;
  bs.bs_slots.(idx) <- Some b

let bufs_reset bs =
  if bs.bs_set > 0 then
    Array.fill bs.bs_slots 0 (Array.length bs.bs_slots) None;
  bs.bs_set <- 0

let bufs_iter f bs =
  if bs.bs_set > 0 then
    Array.iter (function Some b -> f b | None -> ()) bs.bs_slots

let bufs_fold f bs init =
  let acc = ref init in
  bufs_iter (fun b -> acc := f b !acc) bs;
  !acc

type vc_state = {
  vci : int;
  channel : channel;
  mutable sar : Sar.t; (* replaced when the stripe narrows/widens *)
  mutable last_progress : Time.t; (* last successful placement (timeout) *)
  bufs : bufset; (* buffer index within current PDU *)
  mutable buf_size : int; (* capacity of this PDU's buffers; 0 = none yet *)
  mutable next_post : int;
  mutable dropping : bool;
  fbufs : Desc.t Queue.t; (* per-VCI preallocated buffers (cached fbufs) *)
  stash : (int * Cell.t) Queue.t;
      (* skew: cells of the next PDU arriving on links whose sub-stream of
         the current PDU already finished; replayed after completion *)
}

(* Receive-side DMA work for one cell: write its payload to host memory
   piece by piece, then post the buffers it completed. The payload is the
   cell's own data, read at DMA time: nothing mutates a payload after
   [Cell.make] ([Cell.corrupt] copies). *)
type dma_cmd = {
  payload : Bytes.t;
  pieces : int array; (* addr, len of each bus transaction, flattened *)
  rx_vc : vc_state;
  rx_ch : channel; (* the VC's channel when the placement was decided *)
  posts : Desc.t list; (* filled-buffer descriptors, in posting order *)
}

(* Transmit-side DMA work: fetch cells [f_first, f_first + f_count) of
   the PDU from host memory, then emit them. Queued so the i960's
   per-cell work overlaps the DMA engine (they are separate units on the
   board). *)
type tx_fetch_cmd = { f_pdu : tx_pdu; f_first : int; f_count : int }

type t = {
  eng : Engine.t;
  bus : Tc.t;
  mem : Phys_mem.t;
  page_size : int; (* the host's: DMA transactions never cross it *)
  cfg : config;
  on_interrupt : interrupt_reason -> unit;
  on_dma_write : addr:int -> len:int -> unit;
  channels : channel array;
  mutable n_open : int;
  vcs : vc_state Ctable.t; (* the on-board VC classification table *)
  tx_work : Signal.t;
  mutable tx_kicks : int; (* synchronous enqueue counter; see tx_processor *)
  tx_fetch_q : tx_fetch_cmd Mailbox.t;
  tx_out : Cell.t Mailbox.t;
  rx_dma_q : dma_cmd Mailbox.t;
  mutable tx_link : Atm_link.t option;
  rx_link_map : int array; (* physical channel -> logical stripe index *)
  mutable rx_strategy : Sar.strategy; (* current (possibly narrowed) *)
  sweep_work : Signal.t; (* wakes the reassembly-timeout sweeper *)
  mutable irq_filter : (interrupt_reason -> bool) option;
  mutable recv_fn :
    (Process.agent -> (int * Cell.t -> unit) -> unit) option;
      (* the next arrival, for the receive processor *)
  pending_cells : (int * Cell.t) Queue.t;
  mutable rr_cursor : int;
  mutable started : bool;
  mutable frame_buf : Bytes.t;
      (* [frame_chain]'s gather buffer, grown to the longest framed PDU *)
  m : m;
  (* Placeholders the stages' records start with. *)
  no_vc : vc_state;
  no_pdu : tx_pdu;
  no_cmd : dma_cmd;
}

let i960_time cycles = ((cycles * 1_000_000_000) + i960_hz - 1) / i960_hz

(* The host's accesses are PIO transactions on its bus; the board's are
   i960 cycles per dual-port word, which the board's agents sleep for. *)
let make_hooks bus =
  {
    Desc_queue.host_pio_read = (fun n -> Tc.pio_read_words bus ~words:n);
    host_pio_write = (fun n -> Tc.pio_write_words bus ~words:n);
    board_access = (fun n -> i960_time (n * queue_word_cycles));
  }

let make_channel eng bus cfg id =
  let hooks = make_hooks bus in
  let mk metrics_prefix direction =
    Desc_queue.create eng ~metrics_prefix ~size:cfg.queue_size ~direction
      ~locking:cfg.locking ~hooks ()
  in
  {
    id;
    tx_q = mk "board.txq" Desc_queue.Host_to_board;
    free_q = mk "board.freeq" Desc_queue.Host_to_board;
    rx_q = mk "board.rxq" Desc_queue.Board_to_host;
    priority = if id = 0 then 0 else 1;
    allowed = None;
    txst = None;
    peek_ahead = 0;
    reassert_armed = false;
    reassert_h = None;
    free_gated = false;
  }

let create eng ~bus ~mem ~on_interrupt ?(on_dma_write = fun ~addr:_ ~len:_ -> ())
    cfg =
  let channels = Array.init n_channels (fun id -> make_channel eng bus cfg id) in
  (* Fills the classification table's empty value slots; never returned
     by a lookup (its key is the empty sentinel). *)
  let dummy_vc =
    {
      vci = -1;
      channel = channels.(0);
      sar = Sar.create cfg.reassembly ~max_cells:max_pdu_cells;
      last_progress = 0;
      bufs = bufs_create ();
      buf_size = 0;
      next_post = 0;
      dropping = false;
      fbufs = Queue.create ();
      stash = Queue.create ();
    }
  in
  let no_pdu =
    {
      cells = [||];
      data_len = 0;
      nchain = 0;
      tx_ch = channels.(0);
      piece_off = [||];
      next = 0;
      cursor = 0;
    }
  in
  let no_cmd =
    {
      payload = Bytes.empty;
      pieces = [||];
      rx_vc = dummy_vc;
      rx_ch = channels.(0);
      posts = [];
    }
  in
  let t =
    {
      eng;
      bus;
      mem;
      page_size = Phys_mem.page_size mem;
      cfg;
      on_interrupt;
      on_dma_write;
      channels;
      n_open = 1;
      vcs = Ctable.create ~dummy:dummy_vc 32;
      tx_work = Signal.create eng;
      tx_kicks = 0;
      tx_fetch_q =
        Mailbox.create eng ~capacity:2
          ~empty:{ f_pdu = no_pdu; f_first = 0; f_count = 0 }
          ();
      tx_out = Mailbox.create eng ~capacity:4 ~empty:no_cell ();
      rx_dma_q = Mailbox.create eng ~capacity:4 ~empty:no_cmd ();
      tx_link = None;
      rx_link_map = Array.init cfg.nlinks (fun i -> i);
      rx_strategy = cfg.reassembly;
      sweep_work = Signal.create eng;
      irq_filter = None;
      recv_fn = None;
      pending_cells = Queue.create ();
      rr_cursor = 0;
      started = false;
      frame_buf = Bytes.empty;
      m = make_board_metrics ();
      no_vc = dummy_vc;
      no_pdu;
      no_cmd;
    }
  in
  t

let config t = t.cfg
let engine t = t.eng

let stats t : stats =
  {
    cells_sent = Metrics.counter_value t.m.m_cells_sent;
    cells_received = Metrics.counter_value t.m.m_cells_received;
    pdus_sent = Metrics.counter_value t.m.m_pdus_sent;
    pdus_received = Metrics.counter_value t.m.m_pdus_received;
    dma_tx_transactions = Metrics.counter_value t.m.m_dma_tx;
    dma_rx_transactions = Metrics.counter_value t.m.m_dma_rx;
    combined_dmas = Metrics.counter_value t.m.m_combined_dmas;
    boundary_splits = Metrics.counter_value t.m.m_boundary_splits;
    pdus_dropped_no_buffer = Metrics.counter_value t.m.m_pdus_dropped_no_buffer;
    cells_dropped = Metrics.counter_value t.m.m_cells_dropped;
    reassembly_errors = Metrics.counter_value t.m.m_reassembly_errors;
    protection_faults = Metrics.counter_value t.m.m_protection_faults;
    unknown_vci_cells = Metrics.counter_value t.m.m_unknown_vci_cells;
    reassembly_timeouts = Metrics.counter_value t.m.m_reassembly_timeouts;
    restripe_aborts = Metrics.counter_value t.m.m_restripe_aborts;
    interrupts_suppressed = Metrics.counter_value t.m.m_interrupts_suppressed;
    irq_reasserts = Metrics.counter_value t.m.m_irq_reasserts;
  }

(* Interrupt delivery with an optional loss filter (fault injection): a
   filter returning false eats the assertion. Recovery from a lost
   Rx_nonempty relies on the [irq_reassert] watchdog below. *)
let raise_interrupt t reason =
  match t.irq_filter with
  | Some f when not (f reason) ->
      Metrics.incr t.m.m_interrupts_suppressed;
      Trace.emitf Trace.Fault ~now:(Engine.now t.eng) "interrupt suppressed"
  | _ -> t.on_interrupt reason

let set_irq_filter t f = t.irq_filter <- f

(* Watchdog for lost receive interrupts: while a channel's receive queue
   stays non-empty, re-assert Rx_nonempty every [irq_reassert] ns. The
   event chain terminates as soon as the host drains the queue, so an
   enabled watchdog adds no events at quiescence. *)
let rec arm_reassert t ch =
  if t.cfg.irq_reassert > 0 && not ch.reassert_armed then begin
    ch.reassert_armed <- true;
    match ch.reassert_h with
    | Some h ->
        (* The previous timer has fired ([reassert_armed] was false), so
           the handle and its closure can be re-armed in place instead
           of allocating fresh ones every watchdog period. *)
        Engine.reschedule t.eng ~delay:t.cfg.irq_reassert h
    | None ->
        ch.reassert_h <-
          Some
            (Engine.schedule t.eng ~delay:t.cfg.irq_reassert (fun () ->
                 ch.reassert_armed <- false;
                 if Desc_queue.count ch.rx_q > 0 then begin
                   Metrics.incr t.m.m_irq_reasserts;
                   raise_interrupt t (Rx_nonempty ch.id);
                   arm_reassert t ch
                 end))
  end

let kernel_channel t = t.channels.(0)

let open_channel t ?(priority = 1) () =
  if t.n_open >= n_channels then
    failwith "Board.open_channel: all queue pages in use";
  let ch = t.channels.(t.n_open) in
  t.n_open <- t.n_open + 1;
  ch.priority <- priority;
  ch

let channel_id ch = ch.id
let tx_queue ch = ch.tx_q
let free_queue ch = ch.free_q
let rx_queue ch = ch.rx_q
let set_allowed_pages ch allowed = ch.allowed <- allowed
let set_priority ch p = ch.priority <- p

let set_free_gate t ~ch gated =
  if ch < 0 || ch >= n_channels then
    invalid_arg "Board.set_free_gate: channel out of range";
  t.channels.(ch).free_gated <- gated

let free_gated t ~ch =
  if ch < 0 || ch >= n_channels then
    invalid_arg "Board.free_gated: channel out of range";
  t.channels.(ch).free_gated

let bind_vci t ~vci ch =
  if vci < 0 then invalid_arg "Board.bind_vci: negative VCI";
  if Ctable.mem t.vcs vci then invalid_arg "Board.bind_vci: VCI in use";
  Ctable.add t.vcs vci
    {
      vci;
      channel = ch;
      sar = Sar.create t.rx_strategy ~max_cells:max_pdu_cells;
      last_progress = 0;
      bufs = bufs_create ();
      buf_size = 0;
      next_post = 0;
      dropping = false;
      fbufs = Queue.create ();
      stash = Queue.create ();
    }

let supply_vci_buffer t ~vci desc =
  match Ctable.find t.vcs vci with
  | None -> invalid_arg "Board.supply_vci_buffer: unbound VCI"
  | Some vc ->
      if Queue.length vc.fbufs >= t.cfg.queue_size then false
      else begin
        (* Host writes the descriptor into the VC's buffer list in
           dual-port memory: same cost as a free-queue enqueue. *)
        Tc.pio_write_words t.bus ~words:(Desc.words + 1);
        Queue.add desc vc.fbufs;
        true
      end

let vci_buffer_count t ~vci =
  match Ctable.find t.vcs vci with
  | None -> 0
  | Some vc -> Queue.length vc.fbufs

(* Demultiplexing cost accounting: probe statistics of the on-board VC
   classification table, and its (analytic) resident footprint. *)
let demux_stats t = Ctable.probe_stats t.vcs
let reset_demux_stats t = Ctable.reset_probe_stats t.vcs
let demux_resident_bytes t = Ctable.resident_bytes t.vcs
let demux_vcs t = Ctable.length t.vcs

let demux_check t =
  List.map (fun s -> "board demux: " ^ s) (Ctable.check t.vcs)

(* ------------------------------------------------------------------ *)
(* Transmit DMA plans: the transactions the controller actually issues
   for a byte range of a PDU — one per physical buffer crossing and one
   per page boundary (the §2.5.2 boundary-stop behaviour). *)

(* Cut a descriptor chain into plan pieces; see [tx_pdu]. *)
let dma_plan ~page_size chain =
  let rec cut addr len off acc =
    if len = 0 then acc
    else
      let chunk = Int.min len (page_size - (addr mod page_size)) in
      cut (addr + chunk) (len - chunk) (off + chunk) (off :: acc)
  in
  let rec go off acc = function
    | [] -> Array.of_list (List.rev (off :: acc))
    | (d : Desc.t) :: rest ->
        go (off + d.Desc.len) (cut d.Desc.addr d.Desc.len off acc) rest
  in
  go 0 [] chain

let rec plan_seek pdu lo =
  if pdu.piece_off.(pdu.cursor + 1) <= lo then begin
    pdu.cursor <- pdu.cursor + 1;
    plan_seek pdu lo
  end

let rec plan_count pdu i hi n =
  if pdu.piece_off.(i) < hi then plan_count pdu (i + 1) hi (n + 1) else n

(* The span counter: the number of bus transactions that fetch data
   bytes [lo, hi), counted from [pdu.cursor] once it has moved past the
   pieces that end at or before [lo]. Fetches of one PDU run in order,
   so the cursor only moves forward. *)
let plan_spans pdu ~lo ~hi =
  if hi <= lo then 0
  else begin
    plan_seek pdu lo;
    plan_count pdu pdu.cursor hi 0
  end


(* ------------------------------------------------------------------ *)
(* Transmit side. *)

let validate_chain t ch chain =
  match ch.allowed with
  | None -> true
  | Some ranges ->
      let ok (d : Desc.t) =
        List.exists
          (fun (r : Pbuf.t) ->
            d.Desc.addr >= r.Pbuf.addr
            && d.Desc.addr + d.Desc.len <= r.Pbuf.addr + r.Pbuf.len)
          ranges
      in
      let all_ok = List.for_all ok chain in
      if not all_ok then begin
        Metrics.incr t.m.m_protection_faults;
        raise_interrupt t (Protection_violation ch.id)
      end;
      all_ok

let rec gather t chain off =
  match chain with
  | [] -> ()
  | (d : Desc.t) :: rest ->
      Phys_mem.blit_to_bytes t.mem ~src:d.Desc.addr ~dst:t.frame_buf
        ~dst_off:off ~len:d.Desc.len;
      gather t rest (off + d.Desc.len)

(* Segment a chain's bytes where the board has them: gather them into
   [frame_buf], frame them there and cut the cells. The buffer is used
   only between two suspensions of the transmit processor. *)
let frame_chain t ~vci ~nlinks chain =
  let len = Desc.total_len chain in
  let total = Sar.framed_len len in
  if Bytes.length t.frame_buf < total then
    t.frame_buf <-
      (Bytes.create (Int.max total (2 * Bytes.length t.frame_buf))
      [@osiris.alloc_ok
        "buffer growth: the board's one framing buffer, doubled until the \
         longest framed PDU fits, then reused"]);
  gather t chain 0;
  Sar.frame_into t.frame_buf ~len;
  Sar.cut ~vci ~nlinks t.frame_buf ~ncells:(total / Cell.data_size)

(* Stripe width segmentation targets: the live channels of the outgoing
   trunk, so framing bits land where the receiver's narrowed per-link
   reassembly expects them. Falls back to the configured width when every
   channel is down (the cells vanish at the link anyway). *)
let tx_stripe_width t =
  match t.tx_link with
  | Some l ->
      let n = Atm_link.nlive l in
      if n > 0 then n else t.cfg.nlinks
  | None -> t.cfg.nlinks

(* ------------------------------------------------------------------ *)
(* The board's stages are callback agents ([Process.agent]), not fibers.
   Each stage's loop is cut at every point where the fiber suspended —
   an i960 sleep, a dual-port queue access, a bus transaction, a full
   command queue — and each piece is a step that ends by naming the next.
   A step does the work the fiber did between the same two suspension
   points, in the same order, so every engine event keeps its instant
   and its place (DESIGN §17). A per-cell stage keeps its state in a
   record whose steps are built once, so a step allocates nothing but
   the events of its suspensions and the command records it hands on. *)

(* The transmit processor: scan the channels (strict priority,
   round-robin within a level, loading each busy channel's next chain
   through dual-port peeks), emit one quantum from the channel picked,
   or wait for work. *)
type tx_proc = {
  tp_t : t;
  tp_a : Process.agent;
  mutable kicks : int; (* [tx_kicks] when this pass began *)
  mutable best : int; (* the scan's pick so far, or -1 *)
  mutable idx : int; (* the channel the scan is at *)
  mutable left : int; (* channels the scan has still to visit *)
  mutable l_i : int; (* the chain being read: its next descriptor *)
  mutable l_acc : Desc.t list; (* ... and those read so far, newest first *)
  mutable e_pdu : tx_pdu; (* the quantum in the i960's hands *)
  mutable e_first : int;
  mutable e_count : int;
  tp_pass : unit -> unit;
  tp_peeked_first : Desc.t option -> unit;
  tp_peeked : Desc.t option -> unit;
  tp_rejected : unit -> unit;
  tp_emitted : unit -> unit;
}

let rec last_loaded t i =
  if i < 0 || t.channels.(i).txst <> None then i else last_loaded t (i - 1)

(* An open channel the load would pass over without touching dual-port
   memory: no PDU loaded and nothing queued past the chains already in
   flight. *)
let tx_quiet ch = ch.txst = None && Desc_queue.count ch.tx_q <= ch.peek_ahead

(* One pass of the loop. Snapshot the kick counter before scanning: if
   an enqueue lands while the scan's dual-port accesses are in progress,
   the counter moves and the pass rescans instead of waiting through
   the (already fired) signal. Under coarse multiplexing
   ([Pdu_at_once]) an in-progress PDU is always finished first,
   regardless of what else is queued. *)
let rec tx_pass p =
  let t = p.tp_t in
  p.kicks <- t.tx_kicks;
  let in_progress =
    match t.cfg.tx_mux with
    | Cell_interleave -> -1
    | Pdu_at_once -> last_loaded t (n_channels - 1)
  in
  if in_progress >= 0 then tx_emit p t.channels.(in_progress)
  else begin
    p.best <- -1;
    p.idx <- t.rr_cursor;
    p.left <- n_channels;
    tx_scan p
  end

(* The scan visits each channel once, from the cursor. The channels
   never opened, [n_open] and up, are quiet and the scan does not
   suspend between them, so it passes them all in one step. *)
and tx_scan p =
  let t = p.tp_t in
  if p.left = 0 then tx_picked p
  else if p.idx >= t.n_open then begin
    let n = n_channels in
    let skip = Int.min p.left (n - p.idx) in
    p.left <- p.left - skip;
    p.idx <- (if p.idx + skip = n then 0 else p.idx + skip);
    tx_scan p
  end
  else begin
    let ch = t.channels.(p.idx) in
    if tx_quiet ch then tx_scan_next p
    else if ch.txst <> None then tx_loaded p true
    else
      (* Read the channel's next chain (without advancing the tail):
         the first peek tells whether anything is queued past the
         chains in flight, then the chain is read from that slot again,
         one peek per descriptor, up to its eop. *)
      Desc_queue.board_peek_then ch.tx_q p.tp_a ch.peek_ahead
        p.tp_peeked_first
  end

and tx_loaded p ok =
  let t = p.tp_t in
  if
    ok
    && (p.best < 0
       || t.channels.(p.best).priority > t.channels.(p.idx).priority)
  then p.best <- p.idx;
  tx_scan_next p

and tx_scan_next p =
  p.idx <- (if p.idx + 1 = n_channels then 0 else p.idx + 1);
  p.left <- p.left - 1;
  tx_scan p

and tx_picked p =
  let t = p.tp_t in
  if p.best >= 0 then begin
    t.rr_cursor <- (if p.best + 1 = n_channels then 0 else p.best + 1);
    tx_emit p t.channels.(p.best)
  end
  else if t.tx_kicks = p.kicks then Signal.wait_then t.tx_work p.tp_a p.tp_pass
  else tx_pass p

and tx_peeked_first p = function
  | None -> tx_loaded p false
  | Some _ ->
      p.l_i <- 0;
      p.l_acc <- [];
      tx_peek_next p

and tx_peek_next p =
  let ch = p.tp_t.channels.(p.idx) in
  Desc_queue.board_peek_then ch.tx_q p.tp_a (ch.peek_ahead + p.l_i)
    p.tp_peeked

and tx_peeked p = function
  | None ->
      let t = p.tp_t and ch = p.tp_t.channels.(p.idx) in
      p.l_acc <- [];
      Trace.emitf Trace.Board_tx ~now:(Engine.now t.eng)
        "ch%d chain incomplete (ahead=%d count=%d)" ch.id ch.peek_ahead
        (Desc_queue.count ch.tx_q);
      tx_loaded p false
  | Some d ->
      if d.Desc.eop then begin
        let chain = List.rev (d :: p.l_acc) in
        p.l_acc <- [];
        tx_load p chain
      end
      else begin
        p.l_i <- p.l_i + 1;
        p.l_acc <- d :: p.l_acc;
        tx_peek_next p
      end

(* Set up the chain's segmentation state; a chain that fails the
   protection check is discarded at once (nothing is in flight for it). *)
and tx_load p chain =
  let t = p.tp_t in
  let ch = t.channels.(p.idx) in
  let nchain = List.length chain in
  if not (validate_chain t ch chain) then
    Desc_queue.board_advance_then ch.tx_q p.tp_a nchain p.tp_rejected
  else begin
    if Trace.enabled Trace.Board_tx then
      Trace.emitf Trace.Board_tx ~now:(Engine.now t.eng) "ch%d load chain [%s]"
        ch.id
        (String.concat ";"
           (List.map
              (fun (d : Desc.t) ->
                Printf.sprintf "%d%s" d.Desc.len (if d.Desc.eop then "*" else ""))
              chain));
    ch.peek_ahead <- ch.peek_ahead + nchain;
    let vci = (List.hd chain).Desc.vci in
    let cells = frame_chain t ~vci ~nlinks:(tx_stripe_width t) chain in
    ch.txst <-
      Some
        {
          cells;
          data_len = Desc.total_len chain;
          nchain;
          tx_ch = ch;
          piece_off = dma_plan ~page_size:t.page_size chain;
          next = 0;
          cursor = 0;
        };
    tx_loaded p true
  end

(* Emit one scheduling quantum (one cell, or a pair under double-cell
   DMA) from the given channel: the i960 computes the DMA command, then
   hands it to the transmit DMA engine, overlapping with the previous
   fetch. The quantum's cells are taken ([pdu.next]) only once the i960's
   work is done. *)
and tx_emit p ch =
  match ch.txst with
  | None -> tx_pass p
  | Some pdu ->
      let t = p.tp_t in
      let k = pdu.next in
      let remaining = Array.length pdu.cells - k in
      let n =
        match t.cfg.dma_mode with
        | Single_cell -> 1
        | Double_cell -> Int.min 2 remaining
      in
      let cycles =
        if n = 2 then
          Int.max 1
            ((2 * t.cfg.tx_cycles_per_cell) - t.cfg.tx_combine_saving_cycles)
        else t.cfg.tx_cycles_per_cell
      in
      p.e_pdu <- pdu;
      p.e_first <- k;
      p.e_count <- n;
      Process.sleep_then p.tp_a (i960_time cycles) p.tp_emitted

and tx_emitted p =
  let pdu = p.e_pdu and k = p.e_first and n = p.e_count in
  pdu.next <- k + n;
  if pdu.next >= Array.length pdu.cells then pdu.tx_ch.txst <- None;
  Mailbox.send_then p.tp_t.tx_fetch_q
    ({ f_pdu = pdu; f_first = k; f_count = n }
    [@osiris.alloc_ok "the fetch command handed to the DMA engine: one per quantum"])
    p.tp_a p.tp_pass

let tx_processor t =
  let rec p =
    {
      tp_t = t;
      tp_a = Process.agent t.eng ~name:"tx-processor";
      kicks = 0;
      best = -1;
      idx = 0;
      left = 0;
      l_i = 0;
      l_acc = [];
      e_pdu = t.no_pdu;
      e_first = 0;
      e_count = 0;
      tp_pass = (fun () -> tx_pass p);
      tp_peeked_first = (fun d -> tx_peeked_first p d);
      tp_peeked = (fun d -> tx_peeked p d);
      tp_rejected = (fun () -> tx_loaded p false);
      tp_emitted = (fun () -> tx_emitted p);
    }
  in
  Process.start p.tp_a p.tp_pass

(* The transmit DMA engine: take the next fetch command, read its bytes
   one bus transaction per plan piece, hand its cells to the link
   sender, and complete the PDU after its last cell. *)
type tx_dma = {
  td_t : t;
  td_a : Process.agent;
  mutable d_pdu : tx_pdu;
  mutable d_first : int;
  mutable d_count : int;
  mutable d_lo : int; (* the fetch's data bytes [d_lo, d_hi) *)
  mutable d_hi : int;
  mutable d_piece : int; (* next plan piece to read *)
  mutable d_pieces_end : int;
  mutable d_cell : int; (* next cell to hand to the link sender *)
  td_next : unit -> unit;
  td_got : tx_fetch_cmd -> unit;
  td_read : unit -> unit;
  td_sent : unit -> unit;
  td_advanced : unit -> unit;
  td_tested : bool -> unit;
}

let rec tx_dma_next d = Mailbox.recv_then d.td_t.tx_fetch_q d.td_a d.td_got

and tx_dma_got d { f_pdu = pdu; f_first = k; f_count = n } =
  let t = d.td_t in
  let lo = k * Cell.data_size in
  let hi = Int.min ((k + n) * Cell.data_size) pdu.data_len in
  let nspans = plan_spans pdu ~lo ~hi in
  Metrics.add t.m.m_dma_tx nspans;
  if nspans > 1 then Metrics.add t.m.m_boundary_splits (nspans - 1);
  d.d_pdu <- pdu;
  d.d_first <- k;
  d.d_count <- n;
  d.d_lo <- lo;
  d.d_hi <- hi;
  d.d_piece <- pdu.cursor;
  d.d_pieces_end <- pdu.cursor + nspans;
  tx_dma_read d

and tx_dma_read d =
  let i = d.d_piece in
  if i < d.d_pieces_end then begin
    let pdu = d.d_pdu in
    let from = Int.max d.d_lo pdu.piece_off.(i) in
    d.d_piece <- i + 1;
    Tc.dma_read_then d.td_t.bus d.td_a
      ~bytes:(Int.min d.d_hi pdu.piece_off.(i + 1) - from)
      d.td_read
  end
  else begin
    d.d_cell <- d.d_first;
    tx_dma_hand_off d
  end

and tx_dma_hand_off d =
  if d.d_cell < d.d_first + d.d_count then
    Mailbox.send_then d.td_t.tx_out d.d_pdu.cells.(d.d_cell) d.td_a d.td_sent
  else if d.d_first + d.d_count >= Array.length d.d_pdu.cells then
    tx_finish_pdu d
  else tx_dma_next d

and tx_dma_sent d =
  Metrics.incr d.td_t.m.m_cells_sent;
  d.d_cell <- d.d_cell + 1;
  tx_dma_hand_off d

(* The PDU's last cell is out: consume its chain. [peek_ahead] drops
   BEFORE the tail advance: the advance sleeps for its dual-port access
   after moving the tail, and a transmit-processor chain read overlapping
   that window must err on the side of reading already-consumed (empty)
   slots — which makes it retry — rather than reading slots beyond its
   chain, which would assemble garbage. *)
and tx_finish_pdu d =
  let pdu = d.d_pdu in
  let ch = pdu.tx_ch in
  ch.peek_ahead <- ch.peek_ahead - pdu.nchain;
  Desc_queue.board_advance_then ch.tx_q d.td_a pdu.nchain d.td_advanced

(* A transmit-processor scan can race this completion (the advance
   slept while [peek_ahead] was already lowered); kick it so such a scan
   is retried with consistent state. *)
and tx_dma_advanced d =
  let t = d.td_t in
  Metrics.incr t.m.m_pdus_sent;
  t.tx_kicks <- t.tx_kicks + 1;
  Signal.broadcast t.tx_work;
  Desc_queue.board_test_waiting_then d.d_pdu.tx_ch.tx_q d.td_a d.td_tested

and tx_dma_tested d waiting =
  if waiting then raise_interrupt d.td_t (Tx_half_empty d.d_pdu.tx_ch.id);
  tx_dma_next d

let tx_dma_engine t =
  let rec d =
    {
      td_t = t;
      td_a = Process.agent t.eng ~name:"tx-dma";
      d_pdu = t.no_pdu;
      d_first = 0;
      d_count = 0;
      d_lo = 0;
      d_hi = 0;
      d_piece = 0;
      d_pieces_end = 0;
      d_cell = 0;
      td_next = (fun () -> tx_dma_next d);
      td_got = (fun cmd -> tx_dma_got d cmd);
      td_read = (fun () -> tx_dma_read d);
      td_sent = (fun () -> tx_dma_sent d);
      td_advanced = (fun () -> tx_dma_advanced d);
      td_tested = (fun w -> tx_dma_tested d w);
    }
  in
  Process.start d.td_a d.td_next

(* The link sender: take the next cell, send it (waiting out the link's
   backpressure), repeat. *)
let tx_sender t =
  let a = Process.agent t.eng ~name:"tx-sender" in
  match t.tx_link with
  | None -> Process.start a ignore (* transmit side unused (receive-only) *)
  | Some link ->
      let rec next () = Mailbox.recv_then t.tx_out a send
      and send cell = Atm_link.send_then link a cell next in
      Process.start a next

(* ------------------------------------------------------------------ *)
(* Receive side. *)

let reset_vc vc =
  Sar.reset vc.sar;
  bufs_reset vc.bufs;
  (* buf_size persists: buffer pools are uniform per channel. *)
  vc.next_post <- 0;
  vc.dropping <- false

(* Return the PDU's unposted buffers to the VC's private pool. *)
let recycle_buffers vc =
  bufs_iter (fun b -> if not b.posted then Queue.add b.bdesc vc.fbufs) vc.bufs

(* Enqueuing filled-buffer descriptors to the host, from an agent: one
   enqueue per descriptor, each waiting out its dual-port access, then
   [po_k]. The receive processor, the receive DMA engine, the sweeper
   and a restripe's abort task each own one. *)
type poster = {
  po_t : t;
  po_a : Process.agent;
  mutable po_vc : vc_state;
  mutable po_ch : channel;
  mutable po_desc : Desc.t;
  mutable po_rest : Desc.t list;
  mutable po_k : unit -> unit;
  po_enqueued : bool -> unit;
}

let rec post_next p =
  match p.po_rest with
  | [] ->
      (p.po_k ()
      [@osiris.alloc_ok "the continuation is the poster's caller's next step"])
  | desc :: rest ->
      p.po_rest <- rest;
      p.po_desc <- desc;
      Desc_queue.board_enqueue_then p.po_ch.rx_q p.po_a desc p.po_enqueued

(* After an enqueue's access. An interrupt is asserted only on the
   receive queue's empty -> non-empty transition (paper 2.1.2). *)
and posted p ok =
  let t = p.po_t and ch = p.po_ch in
  if ok then begin
    (* Assert the interrupt iff ours is the only entry: the queue was empty
       at the instant of insertion (checking after the access avoids the
       lost wake-up when the host drains while the enqueue is in
       progress). *)
    if Desc_queue.count ch.rx_q = 1 then raise_interrupt t (Rx_nonempty ch.id);
    (* Under fault injection the assertion above may have been eaten; the
       watchdog (when configured) re-asserts while the queue is backed up. *)
    arm_reassert t ch
  end
  else begin
    (* Receive-queue overflow: the host is hopelessly behind. The data (or
       abort marker) is lost; a real buffer returns to the VC's pool. *)
    let desc = p.po_desc and vc = p.po_vc in
    Metrics.add t.m.m_cells_dropped (desc.Desc.len / Cell.data_size);
    if desc.Desc.len > 0 && vc.buf_size > 0 then
      (Queue.add (Desc.v ~addr:desc.Desc.addr ~len:vc.buf_size ()) vc.fbufs
      [@osiris.alloc_ok "receive-queue overflow: the lost buffer's descriptor"])
  end;
  post_next p

let poster t a =
  let rec p =
    {
      po_t = t;
      po_a = a;
      po_vc = t.no_vc;
      po_ch = t.channels.(0);
      po_desc = no_desc;
      po_rest = [];
      po_k = ignore;
      po_enqueued = (fun ok -> posted p ok);
    }
  in
  p

(* Post [descs], the descriptors of [vc]'s buffers on [ch], in order,
   then run [k]. *)
let post_then p vc ch descs k =
  p.po_vc <- vc;
  p.po_ch <- ch;
  p.po_rest <- descs;
  p.po_k <- k;
  post_next p

(* Mark buffer [idx] of the current PDU posted, if it exists and is not
   yet, consing its descriptor onto [posts]. *)
let post_buffer vc idx ~eop ~marked ~len posts =
  match bufs_get vc.bufs idx with
  | Some b when not b.posted ->
      b.posted <- true;
      Desc.v ~addr:b.bdesc.Desc.addr ~len ~vci:vc.vci ~eop ~marked () :: posts
  | _ -> posts

(* The in-order prefix of buffers that are now full, newest first. *)
let rec post_filled vc posts =
  match bufs_get vc.bufs vc.next_post with
  | Some b when vc.buf_size > 0 && b.filled >= vc.buf_size ->
      let posts =
        post_buffer vc vc.next_post ~eop:false ~marked:false ~len:vc.buf_size
          posts
      in
      vc.next_post <- vc.next_post + 1;
      post_filled vc posts
  | _ -> posts

(* Decide, at reassembly-decision time, which buffer descriptors the
   current DMA command must post once its data has landed: the in-order
   prefix of buffers that are now full and, when the cell completed the
   PDU ([total], its framed length, is at least 0), all the rest.
   Completion also resets the VC for the next PDU. *)
let collect_posts t vc ~total =
  if total < 0 then List.rev (post_filled vc [])
  else begin
    Metrics.incr t.m.m_pdus_received;
    (* The PDU's congestion bit, read before [reset_vc] clears the
       reassembly state, rides on the eop descriptor: one flag per
       PDU, exactly what the host's transport needs to echo. *)
    let pdu_marked = Sar.marked_seen vc.sar in
    let bs = vc.buf_size in
    let nbufs = if bs = 0 then 0 else (total + bs - 1) / bs in
    let posts = ref [] in
    for idx = vc.next_post to nbufs - 1 do
      let len = Int.min bs (total - (idx * bs)) in
      let eop = idx = nbufs - 1 in
      posts := post_buffer vc idx ~eop ~marked:(eop && pdu_marked) ~len !posts
    done;
    recycle_buffers vc;
    reset_vc vc;
    List.rev !posts
  end

(* Host address of framed-PDU byte [off]; its buffer exists. *)
let buffer_addr vc off =
  match bufs_get vc.bufs (off / vc.buf_size) with
  | Some b -> b.bdesc.Desc.addr + (off mod vc.buf_size)
  | None ->
      (invalid_arg "Board: placement beyond the ensured buffers"
      [@osiris.alloc_ok "cold error path: raises, never returns"])

(* Length of the piece at [off]: it ends at [stop], its buffer's end or
   the next page boundary, whichever comes first. *)
let piece_len vc ~page_size off stop =
  let addr = buffer_addr vc off in
  Int.min (stop - off)
    (Int.min (vc.buf_size - (off mod vc.buf_size)) (page_size - (addr mod page_size)))

let rec count_pieces vc ~page_size off stop n =
  if off >= stop then n
  else
    count_pieces vc ~page_size (off + piece_len vc ~page_size off stop) stop
      (n + 1)

let rec fill_pieces vc ~page_size pieces j off stop =
  if off < stop then begin
    let len = piece_len vc ~page_size off stop in
    pieces.(j) <- buffer_addr vc off;
    pieces.(j + 1) <- len;
    (match bufs_get vc.bufs (off / vc.buf_size) with
    | Some b -> b.filled <- b.filled + len
    | None -> ());
    fill_pieces vc ~page_size pieces (j + 2) (off + len) stop
  end

(* The placement-piece walk: the bus transactions that write [len] bytes
   at framed-PDU [offset] — one per buffer crossing and per page
   boundary — as flattened (addr, len) pairs, each credited to its
   buffer. Run once the placement's buffers exist. *)
let placement_pieces vc ~page_size ~offset ~len =
  let stop = offset + len in
  let n = count_pieces vc ~page_size offset stop 0 in
  let pieces =
    (Array.make (2 * n) 0
    [@osiris.alloc_ok "the DMA command's piece array: one per cell"])
  in
  fill_pieces vc ~page_size pieces 0 offset stop;
  pieces

let release_stash t vc = Queue.transfer vc.stash t.pending_cells

(* Abandon the VC's in-progress PDU: recycle its buffers, reset the
   reassembly and, if the host already holds part of its chain, terminate
   that chain with an abort marker (len 0, eop) so the driver discards it,
   then run [k]. [marker_addr] distinguishes the marker's cause on the
   host side: 0 for board-decision aborts (loss/reject/no-buffer),
   [timeout_marker_addr] for reassembly-timeout sweeps. *)
let timeout_marker_addr = 1

let abort_current_pdu_then p vc ~marker_addr k =
  let partially_posted = vc.next_post > 0 in
  recycle_buffers vc;
  reset_vc vc;
  release_stash p.po_t vc;
  if partially_posted then
    post_then p vc vc.channel
      [ Desc.v ~addr:marker_addr ~len:0 ~vci:vc.vci ~eop:true () ]
      k
    [@osiris.alloc_ok "the abort marker: one descriptor per abandoned PDU"]
  else (k () [@osiris.alloc_ok "the continuation is the caller's next step"])

(* The receive processor: per cell, the i960's work, then the
   reassembly decision — demultiplex, reassemble, make sure the
   placement's buffers exist (taking a free buffer is a dual-port
   access) and submit the DMA command, or drop. It owns the reassembly
   bookkeeping, which it updates at decision time. *)
type rx_proc = {
  rp_t : t;
  rp_a : Process.agent;
  rp_post : poster;
  mutable r_link : int; (* the cell's physical channel *)
  mutable r_cell : Cell.t;
  mutable r_vc : vc_state;
  mutable r_place : Sar.placement;
  mutable r_total : int; (* framed total if the cell completed the PDU, else -1 *)
  mutable r_buf : int; (* the next buffer index to make sure of *)
  mutable r_upto : int; (* ... up to this one *)
  mutable r_first : bool; (* making sure of buffer 0, which fixes the size *)
  rp_next : unit -> unit;
  rp_handle : int * Cell.t -> unit;
  rp_decide : unit -> unit;
  rp_got_buf : Desc.t option -> unit;
  rp_requeue : unit -> unit;
  rp_dropped : unit -> unit;
}

let no_placement = { Sar.offset = 0; cell = no_cell }

(* The next cell: one held for reprocessing, else the next arrival. *)
let rec rx_next r =
  let t = r.rp_t in
  if Queue.is_empty t.pending_cells then
    match t.recv_fn with
    | Some recv ->
        (recv r.rp_a r.rp_handle
        [@osiris.alloc_ok
          "the next arrival: the link's or the fictitious source's \
           [recv_then], whose wait is one engine event"])
    | None ->
        (failwith "Board: receive side not attached"
        [@osiris.alloc_ok "cold error path: raises, never returns"])
  else rx_handle r (Queue.take t.pending_cells)

and rx_handle r (phys_link, cell) =
  let t = r.rp_t in
  Metrics.incr t.m.m_cells_received;
  r.r_link <- phys_link;
  r.r_cell <- cell;
  Process.sleep_then r.rp_a (i960_time t.cfg.rx_cycles_per_cell) r.rp_decide

and rx_decide r =
  let t = r.rp_t and phys_link = r.r_link and cell = r.r_cell in
  (* Physical channel -> logical stripe index. Identity while the trunk is
     healthy; narrowed after a carrier loss. -1 = the channel died while
     this cell sat in the input FIFO. Stashed/reprocessed cells keep the
     physical index so they translate against the map current at
     reprocessing time. *)
  let link =
    if phys_link >= 0 && phys_link < Array.length t.rx_link_map then
      t.rx_link_map.(phys_link)
    else phys_link
  in
  if link < 0 then begin
    Metrics.incr t.m.m_cells_dropped;
    rx_next r
  end
  else
    (* The paper's on-board early demultiplexing (§3.1), now a hashed
       classification step whose probe count the experiments charge to
       the per-cell budget via the machine's cache-cost model. *)
    match Ctable.find_slot t.vcs cell.Cell.vci with
    | -1 ->
        Metrics.incr t.m.m_unknown_vci_cells;
        rx_next r
    | slot ->
        let vc = Ctable.slot_value t.vcs slot in
        if vc.dropping then begin
          Metrics.incr t.m.m_cells_dropped;
          if cell.Cell.last_of_pdu then vc.dropping <- false;
          rx_next r
        end
        else if Sar.in_progress vc.sar && Sar.link_finished vc.sar ~link then begin
          if Sar.all_links_finished vc.sar then begin
            (* Every sub-stream has ended but the PDU did not complete:
               cells were lost on the wire. Abandon it so the VC cannot
               wedge, then reprocess this cell against the fresh state,
               after the released stash. *)
            (Trace.emitf Trace.Board_rx ~now:(Engine.now t.eng)
               "abandon incomplete PDU vci=%d (lost cells)" cell.Cell.vci
            [@osiris.alloc_ok "loss diagnostics: format value, once per lost PDU"]);
            Metrics.incr t.m.m_reassembly_errors;
            (abort_current_pdu_then r.rp_post vc ~marker_addr:0 r.rp_requeue
            [@osiris.alloc_ok
              "a lost-cell abort: per abandoned PDU, not per cell; recycles \
               its buffers"])
          end
          else begin
            (* This link's share of the current PDU is done: the cell starts
               the next PDU. Hold it until the current one completes. *)
            (Trace.emitf Trace.Board_rx ~now:(Engine.now t.eng)
               "stash vci=%d seq=%d link=%d" cell.Cell.vci cell.Cell.seq link
            [@osiris.alloc_ok "skew diagnostics: format value"]);
            (Queue.add (phys_link, cell) vc.stash
            [@osiris.alloc_ok
              "skew: a held next-PDU cell, one tuple and queue cell each"]);
            rx_next r
          end
        end
        else begin
          let was_in_progress = Sar.in_progress vc.sar in
          match Sar.push vc.sar ~link cell with
          | Sar.Rejected reason ->
              (Trace.emitf Trace.Board_rx ~now:(Engine.now t.eng)
                 "reject vci=%d seq=%d link=%d: %s" cell.Cell.vci cell.Cell.seq
                 link reason
              [@osiris.alloc_ok "reject diagnostics: format value"]);
              Metrics.incr t.m.m_reassembly_errors;
              Metrics.incr t.m.m_cells_dropped;
              (abort_current_pdu_then r.rp_post vc ~marker_addr:0 r.rp_next
              [@osiris.alloc_ok "a rejected cell's abort: per faulted PDU"])
          | Sar.Placed p ->
              (* Progress for the timeout sweeper: the timer is an
                 inactivity bound, restarted by every placement. Wake the
                 sweeper when this VC (re)enters reassembly. *)
              vc.last_progress <- Engine.now t.eng;
              if (not was_in_progress) && t.cfg.reassembly_timeout > 0 then
                (Signal.broadcast t.sweep_work
                [@osiris.alloc_ok
                  "waking the sweeper: once per PDU, with the timeout on"]);
              rx_place r vc p (-1)
          | Sar.Completed (p, total) -> rx_place r vc p total
        end

(* A placement decision: make sure the buffers behind the cell's bytes
   exist, taking them in index order (the first buffer taken for a PDU
   fixes its buffer size), then submit the DMA command whose posts
   deliver any now-complete buffers, or drop the PDU for lack of
   buffers. A completed PDU then releases its VC's held next-PDU cells
   for reprocessing, in arrival order, ahead of new arrivals. *)
and rx_place r vc p total =
  r.r_vc <- vc;
  r.r_place <- p;
  r.r_total <- total;
  if vc.buf_size > 0 then rx_ensure_upto r
  else begin
    r.r_first <- true;
    r.r_buf <- 0;
    r.r_upto <- 0;
    rx_ensure r
  end

and rx_ensure_upto r =
  r.r_first <- false;
  r.r_buf <- 0;
  r.r_upto <- (r.r_place.Sar.offset + Cell.data_size - 1) / r.r_vc.buf_size;
  rx_ensure r

and rx_ensure r =
  let vc = r.r_vc in
  if r.r_buf > r.r_upto then
    if r.r_first then rx_ensure_upto r else rx_submit r
  else if bufs_get vc.bufs r.r_buf <> None then begin
    r.r_buf <- r.r_buf + 1;
    rx_ensure r
  end
  else
    match
      (Queue.take_opt vc.fbufs
      [@osiris.alloc_ok "a buffer from the VC's pool: per buffer, not per cell"])
    with
    | Some _ as d -> rx_got_buf r d
    | None ->
        (* A gated channel sees an empty free queue (the injected
           starvation fault): descriptors the host enqueued stay put, so
           buffer conservation still holds — the PDU is dropped for want
           of a buffer, not leaked. *)
        if vc.channel.free_gated then rx_got_buf r None
        else Desc_queue.board_dequeue_then vc.channel.free_q r.rp_a r.rp_got_buf

and rx_got_buf r = function
  | None ->
      Metrics.incr r.rp_t.m.m_pdus_dropped_no_buffer;
      (abort_current_pdu_then r.rp_post r.r_vc ~marker_addr:0 r.rp_dropped
      [@osiris.alloc_ok "a no-buffer drop's abort: per dropped PDU"])
  | Some d ->
      let vc = r.r_vc in
      if vc.buf_size = 0 then vc.buf_size <- d.Desc.len
      else if d.Desc.len <> vc.buf_size then
        (* The model requires uniform buffer sizes per PDU; drivers
           supply uniform pools, so treat mismatch as exhaustion. *)
        (failwith "Board: receive buffers of one PDU must be uniform"
        [@osiris.alloc_ok "cold error path: raises, never returns"]);
      (bufs_set vc.bufs r.r_buf { bdesc = d; filled = 0; posted = false }
      [@osiris.alloc_ok "the PDU's next buffer: per buffer, not per cell"]);
      r.r_buf <- r.r_buf + 1;
      rx_ensure r

and rx_submit r =
  let t = r.rp_t and vc = r.r_vc and p = r.r_place in
  let pieces =
    placement_pieces vc ~page_size:t.page_size ~offset:p.Sar.offset
      ~len:Cell.data_size
  in
  let posts =
    (collect_posts t vc ~total:r.r_total
    [@osiris.alloc_ok
      "the buffers this cell fills: a descriptor and a list cell per buffer \
       posted, none for a cell that fills none"])
  in
  let cmd =
    ({ payload = p.Sar.cell.Cell.data; pieces; rx_vc = vc; rx_ch = vc.channel; posts }
    [@osiris.alloc_ok "the DMA command handed to the DMA engine: one per cell"])
  in
  if r.r_total >= 0 then release_stash t vc;
  let n = Array.length pieces / 2 in
  Metrics.add t.m.m_dma_rx n;
  if n > 1 then Metrics.add t.m.m_boundary_splits (n - 1);
  Mailbox.send_then t.rx_dma_q cmd r.rp_a r.rp_next

(* The no-buffer drop's abort is done: skip the rest of the PDU. *)
and rx_dropped r =
  let vc = r.r_vc in
  vc.dropping <- true;
  if r.r_total >= 0 then release_stash r.rp_t vc;
  rx_next r

let rx_processor t =
  let a = Process.agent t.eng ~name:"rx-processor" in
  let rec r =
    {
      rp_t = t;
      rp_a = a;
      rp_post = poster t a;
      r_link = 0;
      r_cell = no_cell;
      r_vc = t.no_vc;
      r_place = no_placement;
      r_total = -1;
      r_buf = 0;
      r_upto = 0;
      r_first = false;
      rp_next = (fun () -> rx_next r);
      rp_handle = (fun arrival -> rx_handle r arrival);
      rp_decide = (fun () -> rx_decide r);
      rp_got_buf = (fun d -> rx_got_buf r d);
      rp_requeue =
        (fun () ->
          Queue.add (r.r_link, r.r_cell) t.pending_cells;
          rx_next r);
      rp_dropped = (fun () -> rx_dropped r);
    }
  in
  Process.start a r.rp_next

(* Can a second cell's DMA be merged with the first's? Only when each
   is one transaction and the two are physically consecutive and in the
   same page. *)
let combinable (cmd1 : dma_cmd) (cmd2 : dma_cmd) ~page_size =
  Array.length cmd1.pieces = 2
  && Array.length cmd2.pieces = 2
  &&
  let a1 = cmd1.pieces.(0) and a2 = cmd2.pieces.(0) in
  a2 = a1 + cmd1.pieces.(1)
  && a1 / page_size = (a2 + cmd2.pieces.(1) - 1) / page_size

(* The receive DMA engine: per command, one bus write per piece, then
   the command's posts. Double-cell DMA (2.5.1): when the next queued
   command's payload is physically consecutive with this one's (and in
   the same page), the controller moves both in a single, longer bus
   transaction. This is where "looking at two cell headers" pays off:
   the command queue is non-empty whenever cells arrive as fast as they
   are served. *)
type rx_dma = {
  rd_t : t;
  rd_a : Process.agent;
  rd_post : poster;
  mutable x_cmd : dma_cmd; (* the command being written *)
  mutable c2 : dma_cmd; (* a pair's second command *)
  mutable pair : bool; (* [c2] runs after [x_cmd] *)
  mutable x_piece : int; (* ... its next piece *)
  mutable x_src : int; (* ... and that piece's payload offset *)
  rd_next : unit -> unit;
  rd_got : dma_cmd -> unit;
  rd_wrote_piece : unit -> unit;
  rd_wrote_pair : unit -> unit;
  rd_post_second : unit -> unit;
  rd_executed : unit -> unit;
}

let rec rx_dma_next d = Mailbox.recv_then d.rd_t.rx_dma_q d.rd_a d.rd_got

and rx_dma_got d cmd1 =
  let t = d.rd_t in
  match
    if t.cfg.dma_mode = Double_cell then Mailbox.try_recv t.rx_dma_q else None
  with
  | Some cmd2 when combinable cmd1 cmd2 ~page_size:t.page_size ->
      let len = cmd1.pieces.(1) + cmd2.pieces.(1) in
      Metrics.incr t.m.m_combined_dmas;
      Hist.add t.m.m_dma_bytes (float_of_int len);
      d.x_cmd <- cmd1;
      d.c2 <- cmd2;
      Tc.dma_write_then t.bus d.rd_a ~bytes:len d.rd_wrote_pair
  | Some cmd2 ->
      d.c2 <- cmd2;
      d.pair <- true;
      rx_dma_exec d cmd1
  | None -> rx_dma_exec d cmd1

and rx_dma_wrote_pair d =
  let t = d.rd_t and cmd1 = d.x_cmd and cmd2 = d.c2 in
  let addr = cmd1.pieces.(0) and len1 = cmd1.pieces.(1) in
  let len = len1 + cmd2.pieces.(1) in
  Phys_mem.blit_from_bytes t.mem ~src:cmd1.payload ~src_off:0 ~dst:addr
    ~len:len1;
  Phys_mem.blit_from_bytes t.mem ~src:cmd2.payload ~src_off:0
    ~dst:(addr + len1) ~len:(len - len1);
  t.on_dma_write ~addr ~len;
  post_then d.rd_post cmd1.rx_vc cmd1.rx_ch cmd1.posts d.rd_post_second

and rx_dma_post_second d =
  let cmd2 = d.c2 in
  post_then d.rd_post cmd2.rx_vc cmd2.rx_ch cmd2.posts d.rd_next

(* [exec_dma]: write the command's pieces, then post its buffers. *)
and rx_dma_exec d cmd =
  d.x_cmd <- cmd;
  d.x_piece <- 0;
  d.x_src <- 0;
  rx_dma_write d

and rx_dma_write d =
  let cmd = d.x_cmd in
  let j = d.x_piece in
  if j < Array.length cmd.pieces / 2 then begin
    let len = cmd.pieces.((2 * j) + 1) in
    (Hist.add d.rd_t.m.m_dma_bytes (float_of_int len)
    [@osiris.alloc_ok "the DMA size histogram: its boxed float sample"]);
    Tc.dma_write_then d.rd_t.bus d.rd_a ~bytes:len d.rd_wrote_piece
  end
  else post_then d.rd_post cmd.rx_vc cmd.rx_ch cmd.posts d.rd_executed

and rx_dma_wrote_piece d =
  let t = d.rd_t and cmd = d.x_cmd and j = d.x_piece in
  let addr = cmd.pieces.(2 * j) and len = cmd.pieces.((2 * j) + 1) in
  Phys_mem.blit_from_bytes t.mem ~src:cmd.payload ~src_off:d.x_src ~dst:addr
    ~len;
  t.on_dma_write ~addr ~len;
  d.x_src <- d.x_src + len;
  d.x_piece <- j + 1;
  rx_dma_write d

and rx_dma_executed d =
  if d.pair then begin
    d.pair <- false;
    rx_dma_exec d d.c2
  end
  else rx_dma_next d

let rx_dma_engine t =
  let a = Process.agent t.eng ~name:"rx-dma" in
  let rec d =
    {
      rd_t = t;
      rd_a = a;
      rd_post = poster t a;
      x_cmd = t.no_cmd;
      c2 = t.no_cmd;
      pair = false;
      x_piece = 0;
      x_src = 0;
      rd_next = (fun () -> rx_dma_next d);
      rd_got = (fun cmd -> rx_dma_got d cmd);
      rd_wrote_piece = (fun () -> rx_dma_wrote_piece d);
      rd_wrote_pair = (fun () -> rx_dma_wrote_pair d);
      rd_post_second = (fun () -> rx_dma_post_second d);
      rd_executed = (fun () -> rx_dma_executed d);
    }
  in
  Process.start a d.rd_next

(* ------------------------------------------------------------------ *)
(* Reassembly-timeout sweeper: a board agent that bounds how long a VC
   may sit mid-reassembly without progress. A cell lost on the wire on a
   quiet VC otherwise wedges that VC forever (no later traffic triggers
   the all-links-finished abandonment). Parks on a signal while nothing
   is in progress, so an enabled sweeper holds no heap events at
   quiescence beyond its final deadline check. *)

let earliest_reassembly_deadline t =
  Ctable.fold
    (fun _ vc acc ->
      if Sar.in_progress vc.sar then begin
        let dl = vc.last_progress + t.cfg.reassembly_timeout in
        match acc with Some d when d <= dl -> acc | _ -> Some dl
      end
      else acc)
    t.vcs None

let stuck_reassemblies t now =
  Ctable.fold
    (fun _ vc acc ->
      if
        Sar.in_progress vc.sar
        && now - vc.last_progress >= t.cfg.reassembly_timeout
      then vc :: acc
      else acc)
    t.vcs []

let reassembly_sweeper t =
  let a = Process.agent t.eng ~name:"reassembly-sweeper" in
  let p = poster t a in
  let rec loop () =
    match earliest_reassembly_deadline t with
    | None -> Signal.wait_then t.sweep_work a loop
    | Some dl ->
        let now = Engine.now t.eng in
        if dl > now then Process.sleep_then a (dl - now) loop
        else sweep now (stuck_reassemblies t now)
  and sweep now = function
    | [] -> loop ()
    | vc :: rest ->
        Metrics.incr t.m.m_reassembly_timeouts;
        Trace.emitf Trace.Fault ~now "reassembly timeout vci=%d (idle %d ns)"
          vc.vci (now - vc.last_progress);
        abort_current_pdu_then p vc ~marker_addr:timeout_marker_addr (fun () ->
            sweep now rest)
  in
  Process.start a loop

(* ------------------------------------------------------------------ *)
(* Carrier transition on the incoming trunk: narrow (or widen) the
   stripe. In-flight reassemblies cannot survive a width change — cell
   positions were computed under the old width — so they are aborted with
   accounting, stashed next-PDU cells are dropped, and every VC's
   reassembly state is rebuilt for the new width. Boundary PDUs that mix
   widths die by rejection or CRC; the trunk itself never stalls. *)

let handle_rx_restripe t link =
  let live = Atm_link.live_links link in
  Array.fill t.rx_link_map 0 (Array.length t.rx_link_map) (-1);
  List.iteri
    (fun logical phys ->
      if phys < Array.length t.rx_link_map then t.rx_link_map.(phys) <- logical)
    live;
  (match t.cfg.reassembly with
  | Sar.Per_link _ -> t.rx_strategy <- Sar.Per_link (Int.max 1 (List.length live))
  | s -> t.rx_strategy <- s);
  let victims =
    Ctable.fold
      (fun _ vc acc ->
        let busy = Sar.in_progress vc.sar || not (Queue.is_empty vc.stash) in
        (* Stashed cells were striped under the old width; they cannot be
           replayed meaningfully. *)
        Metrics.add t.m.m_cells_dropped (Queue.length vc.stash);
        Queue.clear vc.stash;
        let marker = busy && vc.next_post > 0 in
        if busy then begin
          Metrics.incr t.m.m_restripe_aborts;
          recycle_buffers vc;
          reset_vc vc
        end;
        vc.sar <- Sar.create t.rx_strategy ~max_cells:max_pdu_cells;
        if marker then vc :: acc else acc)
      t.vcs []
  in
  Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
    "restripe to %d live links (%d aborted reassemblies)" (List.length live)
    (List.length victims);
  (* Abort-marker enqueues wait for dual-port accesses, and carrier
     callbacks may run from an engine callback: hand them to an agent. *)
  if victims <> [] then begin
    let a = Process.agent t.eng ~name:"restripe-abort" in
    let p = poster t a in
    let rec abort = function
      | [] -> ()
      | vc :: rest ->
          post_then p vc vc.channel
            [ Desc.v ~addr:0 ~len:0 ~vci:vc.vci ~eop:true () ]
            (fun () -> abort rest)
    in
    Process.start a (fun () -> abort victims)
  end

(* ------------------------------------------------------------------ *)

let attach t ~tx_link ~rx_link =
  t.tx_link <- Some tx_link;
  t.recv_fn <- Some (Atm_link.recv_then rx_link);
  Atm_link.on_link_change rx_link (fun () -> handle_rx_restripe t rx_link)

let start_fictitious_source t ~pdus ?rate_mbps () =
  if pdus = [] then invalid_arg "Board.start_fictitious_source: no PDUs";
  let rate =
    match rate_mbps with
    | Some r -> r
    | None ->
        (* Payload rate of the striped OC-12: 4 x 155.52 x 44/53. *)
        4.0 *. 155.52 *. 44.0 /. 53.0
  in
  let inter_cell_ns =
    int_of_float
      (Float.round (float_of_int (Cell.data_size * 8) /. rate *. 1000.0))
  in
  (* Each cell with the channel it arrives on, built once. *)
  let arrivals =
    Array.of_list
      (List.concat_map
         (fun (vci, pdu) ->
           List.map
             (fun (c : Cell.t) -> (c.Cell.seq mod t.cfg.nlinks, c))
             (Sar.segment ~vci ~nlinks:t.cfg.nlinks pdu))
         pdus)
  in
  (* Staged in the same input FIFO a link fills. *)
  let mbox =
    Mailbox.create t.eng ~capacity:Atm_link.rx_fifo_cells ~empty:(0, no_cell) ()
  in
  let a = Process.agent t.eng ~name:"fictitious-source" in
  (* Pace against an absolute schedule so transient FIFO backpressure
     does not permanently lower the offered rate. *)
  let i = ref 0 and next = ref (Engine.now t.eng) in
  let rec pace () =
    let now = Engine.now t.eng in
    if !next > now then Process.sleep_then a (!next - now) emit else emit ()
  (* Waits while the FIFO is full: "as fast as the receiving host could
     absorb them". *)
  and emit () = Mailbox.send_then mbox arrivals.(!i) a sent
  and sent () =
    i := (!i + 1) mod Array.length arrivals;
    next := Int.max !next (Engine.now t.eng - (8 * inter_cell_ns)) + inter_cell_ns;
    pace ()
  in
  Process.start a pace;
  t.recv_fn <- Some (Mailbox.recv_then mbox)

let start t =
  if t.started then invalid_arg "Board.start: already started";
  t.started <- true;
  tx_processor t;
  tx_dma_engine t;
  tx_sender t;
  if t.recv_fn <> None then begin
    rx_processor t;
    rx_dma_engine t;
    if t.cfg.reassembly_timeout > 0 then reassembly_sweeper t
  end;
  (* Wake the transmit processor whenever any channel gets new work; the
     kick counter is bumped synchronously inside the enqueue so a kick can
     never be lost while the processor is mid-scan. *)
  Array.iter
    (fun ch ->
      Desc_queue.set_on_enqueue ch.tx_q (fun () ->
          t.tx_kicks <- t.tx_kicks + 1;
          Signal.broadcast t.tx_work))
    t.channels

(* ------------------------------------------------------------------ *)
(* Accounting views for Osiris_core.Invariants (meaningful at
   quiescence: buffers inside an in-flight DMA command are counted
   neither here nor host-side until the command posts). *)

let held_buffers t =
  Ctable.fold
    (fun _ vc acc ->
      let unposted =
        bufs_fold (fun b n -> if b.posted then n else n + 1) vc.bufs 0
      in
      acc + unposted + Queue.length vc.fbufs)
    t.vcs 0

let reassemblies_in_progress t =
  Ctable.fold
    (fun _ vc acc -> if Sar.in_progress vc.sar then acc + 1 else acc)
    t.vcs 0

let oldest_reassembly_age t =
  let now = Engine.now t.eng in
  Ctable.fold
    (fun _ vc acc ->
      if Sar.in_progress vc.sar then begin
        let age = now - vc.last_progress in
        match acc with Some a when a >= age -> acc | _ -> Some age
      end
      else acc)
    t.vcs None


