open Osiris_sim
module Cpu = Osiris_os.Cpu
module Cache = Osiris_cache.Data_cache
module Wiring = Osiris_os.Wiring
module Board = Osiris_board.Board
module Desc = Osiris_board.Desc
module Desc_queue = Osiris_board.Desc_queue
module Vspace = Osiris_mem.Vspace
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Sar = Osiris_atm.Sar
module Phys_mem = Osiris_mem.Phys_mem
module Crc32 = Osiris_util.Crc32
module Metrics = Osiris_obs.Metrics
module Stats = Osiris_util.Stats

type invalidation = Lazy | Eager | Eager_full

type stats = {
  pdus_sent : int;
  pdus_received : int;
  aborted_chains : int;
  timeout_aborts : int;
  crc_drops : int;
  tx_full_stalls : int;
  rx_wakeups : int;
}

(* Registry handles behind [stats]; [stats t] snapshots them. *)
type m = {
  m_pdus_sent : Metrics.counter;
  m_pdus_received : Metrics.counter;
  m_bytes_received : Metrics.counter;
  m_aborted_chains : Metrics.counter;
  m_timeout_aborts : Metrics.counter;
  m_crc_drops : Metrics.counter;
  m_undeliverable : Metrics.counter;
  m_tx_full_stalls : Metrics.counter;
  m_rx_wakeups : Metrics.counter;
  m_pdu_bytes : Stats.t;  (** distribution of delivered PDU payloads *)
}

let make_driver_metrics () =
  {
    m_pdus_sent = Metrics.counter "driver.tx.pdus_sent";
    m_pdus_received = Metrics.counter "driver.rx.pdus_received";
    m_bytes_received = Metrics.counter "driver.rx.bytes";
    m_aborted_chains = Metrics.counter "driver.rx.aborted_chains";
    m_timeout_aborts = Metrics.counter "driver.rx.timeout_aborts";
    m_crc_drops = Metrics.counter "driver.rx.crc_drops";
    m_undeliverable = Metrics.counter "driver.rx.undeliverable";
    m_tx_full_stalls = Metrics.counter "driver.tx.full_stalls";
    m_rx_wakeups = Metrics.counter "driver.rx.wakeups";
    m_pdu_bytes = Metrics.dist "driver.rx.pdu_bytes";
  }

type pending_tx = {
  upto : int; (* complete when tx_q total_dequeued >= upto *)
  cleanup : unit -> unit;
}

type t = {
  eng : Engine.t;
  cpu : Cpu.t;
  cache : Cache.t;
  wiring : Wiring.t;
  channel : Board.channel;
  vs : Vspace.t;
  costs : Machine.driver_costs;
  cpu_priority : int;
  demux : Demux.t;
  invalidation : invalidation;
  buf_size : int;
  pool : int Queue.t; (* idle buffer vaddrs *)
  by_paddr : (int, int) Hashtbl.t; (* buffer paddr -> vaddr *)
  mutable replenishing : bool; (* one replenisher at a time; see below *)
  mutable outstanding : int;
  tx_lock : Resource.t; (* serializes concurrent senders' descriptor chains *)
  rx_sig : Signal.t;
  tx_space : Signal.t;
  pending : pending_tx Queue.t;
  pending_sig : Signal.t;
  m : m;
}

let alloc_buffer vs ~size ~contiguous =
  if contiguous then
    match Vspace.alloc_contiguous vs ~len:size with
    | Some v -> v
    | None -> failwith "Driver: no physically contiguous memory for buffers"
  else Vspace.alloc vs ~len:size

let create ~cpu ~cache ~wiring ~board ~channel ~vs ~costs ~demux ~invalidation
    ~rx_buffer_size ~rx_pool_buffers ~contiguous_buffers ?(cpu_priority = 10)
    () =
  let buf_size =
    if contiguous_buffers then rx_buffer_size
    else Vspace.page_size vs (* §2.2: page is the largest contiguous unit *)
  in
  let t =
    {
      eng = Board.engine board;
      cpu;
      cache;
      wiring;
      channel;
      vs;
      costs;
      cpu_priority;
      demux;
      invalidation;
      buf_size;
      pool = Queue.create ();
      replenishing = false;
      outstanding = 0;
      tx_lock = Resource.create (Board.engine board) ~capacity:1;
      by_paddr = Hashtbl.create 64;
      rx_sig = Signal.create (Board.engine board);
      tx_space = Signal.create (Board.engine board);
      pending = Queue.create ();
      pending_sig = Signal.create (Board.engine board);
      m = make_driver_metrics ();
    }
  in
  (* When the buffers are page-fragments, keep at least [rx_pool_buffers]
     pages circulating: for [rx_buffer_size < page_size] the ratio rounds
     down to zero, which used to leave the pool empty and the receive path
     permanently stalled. *)
  let n_bufs =
    if contiguous_buffers then rx_pool_buffers
    else Int.max rx_pool_buffers (rx_pool_buffers * (rx_buffer_size / buf_size))
  in
  (* The receive queue must be able to hold every circulating buffer
     (paper: 64-entry queues and 64 buffers): otherwise a slow host can
     make the board drop descriptors from a full receive queue, losing
     end-of-PDU markers. *)
  let n_bufs =
    Int.min n_bufs (Desc_queue.size (Board.rx_queue channel) - 1)
  in
  for _ = 1 to n_bufs do
    let vaddr = alloc_buffer vs ~size:buf_size ~contiguous:contiguous_buffers in
    Vspace.wire vs ~vaddr ~len:buf_size;
    Hashtbl.replace t.by_paddr (Vspace.translate vs vaddr) vaddr;
    Queue.add vaddr t.pool
  done;
  t

let free_desc_of t vaddr =
  Desc.v ~addr:(Vspace.translate t.vs vaddr) ~len:t.buf_size ()

(* Keep the free queue stocked from the pool (no cost beyond the queue's
   own PIO accounting; runs in the calling process). Take the buffer out
   of the pool before the (suspending) enqueue: several processes can
   call this at once (init, receive thread, disposal finalizers), and a
   peek-then-pop discipline would hand the same buffer out twice.

   Only one of them may actually drive the enqueue loop: the host is the
   free queue's single writer, and [host_enqueue] charges PIO time — a
   suspension point — between its fullness check, its slot store and its
   head-pointer publish. Two interleaved enqueuers would store into the
   same slot (leaking one buffer) and advance the head twice (leaving a
   hole the board later reads as empty). The active replenisher re-polls
   the pool after every enqueue, so buffers recycled by the processes
   that found the flag set are picked up before it exits. *)
let replenish_free_queue t =
  if not t.replenishing then begin
    t.replenishing <- true;
    Fun.protect
      ~finally:(fun () -> t.replenishing <- false)
      (fun () ->
        let continue = ref true in
        while !continue do
          match Queue.take_opt t.pool with
          | None -> continue := false
          | Some vaddr ->
              if
                not
                  (Desc_queue.host_enqueue (Board.free_queue t.channel)
                     (free_desc_of t vaddr))
              then begin
                Queue.add vaddr t.pool;
                continue := false
              end
        done)
  end

let recycle t vaddrs =
  t.outstanding <- t.outstanding - List.length vaddrs;
  List.iter (fun v -> Queue.add v t.pool) vaddrs

let claim t n = t.outstanding <- t.outstanding + n

let outstanding_buffers t = t.outstanding
let on_rx_nonempty t = Signal.broadcast t.rx_sig
let on_tx_half_empty t = Signal.broadcast t.tx_space

let stats t : stats =
  {
    pdus_sent = Metrics.counter_value t.m.m_pdus_sent;
    pdus_received = Metrics.counter_value t.m.m_pdus_received;
    aborted_chains = Metrics.counter_value t.m.m_aborted_chains;
    timeout_aborts = Metrics.counter_value t.m.m_timeout_aborts;
    crc_drops = Metrics.counter_value t.m.m_crc_drops;
    tx_full_stalls = Metrics.counter_value t.m.m_tx_full_stalls;
    rx_wakeups = Metrics.counter_value t.m.m_rx_wakeups;
  }

let pool_available t = Queue.length t.pool
let total_buffers t = Hashtbl.length t.by_paddr
let channel t = t.channel

let buffer_regions t =
  Hashtbl.fold
    (fun paddr _ acc -> Osiris_mem.Pbuf.v ~addr:paddr ~len:t.buf_size :: acc)
    t.by_paddr []

(* ------------------------------------------------------------------ *)
(* Receive path. *)

let recycle_chain t chain =
  recycle t
    (List.filter_map
       (fun (d : Desc.t) ->
         if d.Desc.len = 0 then None
         else Hashtbl.find_opt t.by_paddr d.Desc.addr)
       chain);
  replenish_free_queue t

(* CRC-32 of framed bytes [off, off + len) of a chain, folded over host
   memory where the bytes lie. *)
let rec crc_chain mem chain ~off ~len crc =
  if len <= 0 then crc
  else
    match chain with
    | [] -> crc
    | (d : Desc.t) :: rest ->
        if off >= d.Desc.len then
          crc_chain mem rest ~off:(off - d.Desc.len) ~len crc
        else begin
          let n = Int.min len (d.Desc.len - off) in
          crc_chain mem rest ~off:0 ~len:(len - n)
            (Phys_mem.crc32 mem crc ~addr:(d.Desc.addr + off) ~len:n)
        end

(* Copy framed bytes [off, off + len) of a chain into [dst] from
   [dst_off]. *)
let rec read_chain mem chain ~off ~len dst ~dst_off =
  if len > 0 then
    match chain with
    | [] -> ()
    | (d : Desc.t) :: rest ->
        if off >= d.Desc.len then
          read_chain mem rest ~off:(off - d.Desc.len) ~len dst ~dst_off
        else begin
          let n = Int.min len (d.Desc.len - off) in
          Phys_mem.blit_to_bytes mem ~src:(d.Desc.addr + off) ~dst ~dst_off
            ~len:n;
          read_chain mem rest ~off:0 ~len:(len - n) dst ~dst_off:(dst_off + n)
        end

let trailer_check mem chain =
  let total = Desc.total_len chain in
  let trailer =
    (Bytes.make Sar.trailer_size '\000'
    [@osiris.alloc_ok "the PDU's 8 trailer bytes, one small buffer per PDU"])
  in
  if total >= Sar.trailer_size then
    read_chain mem chain ~off:(total - Sar.trailer_size) ~len:Sar.trailer_size
      trailer ~dst_off:0;
  Sar.check_trailer ~total
    ~crc:
      (Crc32.finalize (crc_chain mem chain ~off:0 ~len:(total - 4) Crc32.init))
    trailer ~off:0

(* Process one complete PDU whose buffers (descriptor order) are in
   [chain]; [last] is its final descriptor (the receive thread already has
   it at hand, so the trailer read below need not walk the chain). *)
let process_pdu t chain ~last =
  Cpu.consume_prio t.cpu ~priority:t.cpu_priority t.costs.rx_per_pdu;
  if List.exists (fun (d : Desc.t) -> d.Desc.len = 0) chain then begin
    (* Abort marker: the board abandoned this PDU after posting part of
       it; discard and recycle. The marker's addr distinguishes a
       reassembly-timeout sweep from a board-decision abort. *)
    if
      List.exists
        (fun (d : Desc.t) ->
          d.Desc.len = 0 && d.Desc.addr = Board.timeout_marker_addr)
        chain
    then Metrics.incr t.m.m_timeout_aborts
    else Metrics.incr t.m.m_aborted_chains;
    recycle_chain t chain;
    raise Exit
  end;
  let vci = (List.hd chain).Desc.vci in
  let framed_len = Desc.total_len chain in
  Cpu.consume_prio t.cpu ~priority:t.cpu_priority
    (framed_len * t.costs.rx_per_kb / 1024);
  let vaddrs =
    List.map
      (fun (d : Desc.t) ->
        match Hashtbl.find_opt t.by_paddr d.Desc.addr with
        | Some v -> v
        | None -> failwith "Driver: receive descriptor names unknown buffer")
      chain
  in
  (* The AAL trailer CRC was checked by the adaptor as the cells flowed
     through (hardware CRC); the driver only reads the length field. That
     read goes through the cache like any CPU access. *)
  match trailer_check (Vspace.mem t.vs) chain with
  | Error _ ->
      Metrics.incr t.m.m_crc_drops;
      recycle t vaddrs;
      replenish_free_queue t
  | Ok payload_len ->
      (* Read the trailer's length word through the cache (8 bytes). *)
      ignore
        (Cpu.with_held t.cpu (fun () ->
             Cache.read t.cache
               ~addr:(last.Desc.addr + last.Desc.len - 8)
               ~len:8));
      (match t.invalidation with
      | Eager ->
          Cpu.with_held t.cpu (fun () ->
              List.iter
                (fun (d : Desc.t) ->
                  Cache.invalidate t.cache ~addr:d.Desc.addr ~len:d.Desc.len)
                chain)
      | Eager_full ->
          (* The DECstation's cache-swap instruction: essentially free to
             issue, but everything the host had cached now misses. *)
          Cache.invalidate_all t.cache
      | Lazy -> ());
      (* Zero-copy delivery: a message viewing the buffers, which recycles
         them when the stack is done. *)
      let segs =
        let rec build vaddrs remaining =
          match vaddrs with
          | [] -> []
          | v :: rest ->
              if remaining <= 0 then []
              else begin
                let len = Int.min remaining t.buf_size in
                { Msg.vaddr = v; len } :: build rest (remaining - len)
              end
        in
        build vaddrs payload_len
      in
      let msg = Msg.of_segs t.vs segs in
      (* The board copies the PDU's congestion bit onto its eop
         descriptor; surface it out-of-band on the message so a
         transport above the demux can echo it. *)
      if List.exists (fun (d : Desc.t) -> d.Desc.marked) chain then
        Msg.set_marked msg;
      Msg.add_finalizer msg (fun () ->
          recycle t vaddrs;
          replenish_free_queue t);
      Metrics.incr t.m.m_pdus_received;
      Metrics.add t.m.m_bytes_received payload_len;
      Stats.add t.m.m_pdu_bytes (float_of_int payload_len);
      if not (Demux.deliver t.demux ~vci msg) then begin
        Metrics.incr t.m.m_undeliverable;
        Msg.dispose msg
      end

let process_pdu t chain ~last =
  try process_pdu t chain ~last with Exit -> ()

let rx_thread t () =
  let rx_q = Board.rx_queue t.channel in
  (* [chain] accumulates in reverse; its length rides along so a long
     descriptor chain costs O(n) to drain, not O(n²). *)
  let rec drain chain nchain =
    match Desc_queue.host_dequeue rx_q with
    | None ->
        (* A PDU should never be split across wakeups for long: partial
           chains are kept and continued on the next buffer. *)
        (chain, nchain)
    | Some d ->
        Cpu.consume_prio t.cpu ~priority:t.cpu_priority t.costs.rx_per_buffer;
        (* Only real buffers count as outstanding: abort markers (len 0)
           name no buffer, and claiming them would inflate the count by
           one per abort, breaking buffer-conservation accounting. *)
        if d.Desc.len > 0 then claim t 1;
        replenish_free_queue t;
        let chain = d :: chain in
        let nchain = nchain + 1 in
        if d.Desc.eop then begin
          process_pdu t (List.rev chain) ~last:d;
          drain [] 0
        end
        else if nchain > Desc_queue.size rx_q / 2 then begin
          (* Defensive: a chain this long means end-of-PDU markers were
             lost; reclaim the buffers instead of hoarding them. *)
          Metrics.incr t.m.m_aborted_chains;
          recycle_chain t chain;
          drain [] 0
        end
        else drain chain nchain
  in
  let rec loop chain nchain =
    Signal.wait t.rx_sig;
    Metrics.incr t.m.m_rx_wakeups;
    Cpu.consume_prio t.cpu ~priority:t.cpu_priority t.costs.sched_latency;
    let chain, nchain = drain chain nchain in
    loop chain nchain
  in
  loop [] 0

(* ------------------------------------------------------------------ *)
(* Transmit path. *)

let send t ~vci ?(from_user = false) msg =
  if from_user then Cpu.consume t.cpu t.costs.syscall;
  Cpu.consume t.cpu t.costs.tx_per_pdu;
  (* One PDU's descriptor chain must reach the transmit queue contiguously
     even when several threads send concurrently (the real driver masks
     interrupts / takes a spl lock here). *)
  Resource.acquire t.tx_lock;
  Fun.protect ~finally:(fun () -> Resource.release t.tx_lock) @@ fun () ->
  let segs = Msg.segs msg in
  List.iter
    (fun (s : Msg.seg) ->
      Wiring.wire t.wiring t.vs ~vaddr:s.Msg.vaddr ~len:s.Msg.len)
    segs;
  let pbufs = Msg.pbufs msg in
  let descs = Desc.chain_of_pbufs ~vci pbufs in
  if Osiris_obs.Trace.enabled Osiris_obs.Trace.Driver then
    Osiris_obs.Trace.emitf Osiris_obs.Trace.Driver ~now:(Engine.now t.eng)
      "enqueue vci=%d chain=[%s]" vci
      (String.concat ";"
         (List.map
            (fun (d : Desc.t) ->
              Printf.sprintf "%d%s" d.Desc.len
                (if d.Desc.eop then "*" else ""))
            descs));
  let tx_q = Board.tx_queue t.channel in
  List.iter
    (fun d ->
      Cpu.consume t.cpu t.costs.tx_per_buffer;
      while not (Desc_queue.host_enqueue tx_q d) do
        (* Full: suspend transmit activity and ask for the half-empty
           interrupt (§2.1.2). The re-check is a real host probe of the
           queue pointers and must be charged as PIO like any other. *)
        Metrics.incr t.m.m_tx_full_stalls;
        Desc_queue.host_set_waiting tx_q;
        if Desc_queue.host_probe_full tx_q then Signal.wait t.tx_space
      done)
    descs;
  Metrics.incr t.m.m_pdus_sent;
  let upto = Desc_queue.total_enqueued tx_q in
  let cleanup () =
    List.iter
      (fun (s : Msg.seg) ->
        Wiring.unwire t.wiring t.vs ~vaddr:s.Msg.vaddr ~len:s.Msg.len)
      segs;
    Msg.dispose msg
  in
  Queue.add { upto; cleanup } t.pending;
  Signal.broadcast t.pending_sig

(* Transmit completion is detected by tail-pointer advance, as part of
   other driver activity — modelled as a background watcher that reacts to
   the queue's dequeue events. *)
let tx_watcher t () =
  let tx_q = Board.tx_queue t.channel in
  let rec loop () =
    (match Queue.peek_opt t.pending with
    | None -> Signal.wait t.pending_sig
    | Some p ->
        if Desc_queue.total_dequeued tx_q >= p.upto then begin
          ignore (Queue.pop t.pending);
          p.cleanup ()
        end
        else Signal.wait (Desc_queue.dequeued tx_q));
    loop ()
  in
  loop ()

let start t =
  (* Stocking the free queue performs PIO, so it needs process context. *)
  Process.spawn t.eng ~name:"driver-init" (fun () -> replenish_free_queue t);
  Process.spawn t.eng ~name:"driver-rx" (rx_thread t);
  Process.spawn t.eng ~name:"driver-tx-watch" (tx_watcher t)
