(* Tests for the adaptor: descriptor queues (the §2.1.1 lock-free
   discipline) and the board's transmit/receive machinery. *)

open Osiris_sim
module Board = Osiris_board.Board
module Desc = Osiris_board.Desc
module Desc_queue = Osiris_board.Desc_queue
module Cell = Osiris_atm.Cell
module Sar = Osiris_atm.Sar
module Phys_mem = Osiris_mem.Phys_mem
module Pbuf = Osiris_mem.Pbuf
module Atm_link = Osiris_link.Atm_link
module Tc = Osiris_bus.Turbochannel
module Rng = Osiris_util.Rng

let mk_queue ?(size = 8) ?(locking = Desc_queue.Lock_free) direction =
  let eng = Engine.create () in
  (eng, Desc_queue.create eng ~size ~direction ~locking
          ~hooks:Desc_queue.free_hooks ())

let d i = Desc.v ~addr:(i * 4096) ~len:100 ~vci:i ()

let in_process eng f =
  let r = ref None in
  Process.spawn eng ~name:"t" (fun () -> r := Some (f ()));
  Engine.run eng;
  Option.get !r

(* The board side of a queue, called from a test as the board's agent
   would call it. With free hooks and no lock contention the callback
   form completes inline, so its result is at hand when it returns. *)
let board eng op =
  let r = ref None in
  op (Process.agent eng ~name:"board") (fun v -> r := Some v);
  match !r with
  | Some v -> v
  | None -> failwith "board-side queue operation did not complete inline"

let test_queue_fifo () =
  let eng, q = mk_queue Desc_queue.Host_to_board in
  in_process eng (fun () ->
      for i = 1 to 5 do
        Alcotest.(check bool) "enqueue" true (Desc_queue.host_enqueue q (d i))
      done;
      for i = 1 to 5 do
        match board eng (Desc_queue.board_dequeue_then q) with
        | Some x -> Alcotest.(check int) "FIFO order" i x.Desc.vci
        | None -> Alcotest.fail "missing element"
      done;
      Alcotest.(check bool) "drained" true (Desc_queue.is_empty q))

let test_queue_full_empty () =
  let eng, q = mk_queue ~size:4 Desc_queue.Host_to_board in
  in_process eng (fun () ->
      (* size-1 usable slots *)
      Alcotest.(check bool) "1" true (Desc_queue.host_enqueue q (d 1));
      Alcotest.(check bool) "2" true (Desc_queue.host_enqueue q (d 2));
      Alcotest.(check bool) "3" true (Desc_queue.host_enqueue q (d 3));
      Alcotest.(check bool) "full" false (Desc_queue.host_enqueue q (d 4));
      Alcotest.(check bool) "is_full" true (Desc_queue.is_full q);
      ignore (board eng (Desc_queue.board_dequeue_then q));
      Alcotest.(check bool) "space again" true (Desc_queue.host_enqueue q (d 4)))

let test_queue_counters () =
  let eng, q = mk_queue Desc_queue.Host_to_board in
  in_process eng (fun () ->
      for i = 1 to 5 do
        ignore (Desc_queue.host_enqueue q (d i))
      done;
      for _ = 1 to 3 do
        ignore (board eng (Desc_queue.board_dequeue_then q))
      done;
      Alcotest.(check int) "enqueued" 5 (Desc_queue.total_enqueued q);
      Alcotest.(check int) "dequeued" 3 (Desc_queue.total_dequeued q);
      Alcotest.(check int) "count" 2 (Desc_queue.count q))

let test_queue_peek_advance () =
  let eng, q = mk_queue Desc_queue.Host_to_board in
  in_process eng (fun () ->
      for i = 1 to 4 do
        ignore (Desc_queue.host_enqueue q (d i))
      done;
      (match board eng (fun a -> Desc_queue.board_peek_then q a 2) with
      | Some x -> Alcotest.(check int) "peek third" 3 x.Desc.vci
      | None -> Alcotest.fail "peek failed");
      Alcotest.(check int) "peek does not consume" 4 (Desc_queue.count q);
      board eng (fun a -> Desc_queue.board_advance_then q a 3);
      Alcotest.(check int) "advance consumes" 1 (Desc_queue.count q);
      match board eng (Desc_queue.board_dequeue_then q) with
      | Some x -> Alcotest.(check int) "remaining" 4 x.Desc.vci
      | None -> Alcotest.fail "lost element")

let test_queue_direction_enforced () =
  let eng, q = mk_queue Desc_queue.Host_to_board in
  in_process eng (fun () ->
      Alcotest.(check bool) "wrong side rejected" true
        (try
           ignore (Desc_queue.host_dequeue q);
           false
         with Invalid_argument _ -> true))

let test_queue_waiting_protocol () =
  let eng, q = mk_queue ~size:8 Desc_queue.Host_to_board in
  in_process eng (fun () ->
      for i = 1 to 7 do
        ignore (Desc_queue.host_enqueue q (d i))
      done;
      Desc_queue.host_set_waiting q;
      Alcotest.(check bool) "not yet half empty" false
        (board eng (Desc_queue.board_test_waiting_then q));
      for _ = 1 to 3 do
        ignore (board eng (Desc_queue.board_dequeue_then q))
      done;
      Alcotest.(check bool) "half empty: interrupt now" true
        (board eng (Desc_queue.board_test_waiting_then q));
      Alcotest.(check bool) "one-shot" false
        (board eng (Desc_queue.board_test_waiting_then q)))

(* PIO accounting: the lock-free discipline's shadow pointers save reads. *)
let test_queue_shadow_saves_reads () =
  let eng, q = mk_queue ~size:32 Desc_queue.Host_to_board in
  in_process eng (fun () ->
      for i = 1 to 16 do
        ignore (Desc_queue.host_enqueue q (d i))
      done;
      let st = Desc_queue.access_stats q in
      Alcotest.(check bool) "shadow hits" true (st.Desc_queue.shadow_hits >= 15);
      (* Each enqueue writes descriptor words + head pointer only. *)
      Alcotest.(check int) "writes per op" (16 * (Desc.words + 1))
        st.Desc_queue.host_writes)

let test_queue_spinlock_costs_more () =
  let eng1, q1 = mk_queue ~size:32 ~locking:Desc_queue.Lock_free
      Desc_queue.Host_to_board in
  let eng2, q2 = mk_queue ~size:32 ~locking:Desc_queue.Spin_lock
      Desc_queue.Host_to_board in
  let words q =
    let st = Desc_queue.access_stats q in
    st.Desc_queue.host_reads + st.Desc_queue.host_writes
  in
  in_process eng1 (fun () ->
      for i = 1 to 8 do
        ignore (Desc_queue.host_enqueue q1 (d i))
      done);
  in_process eng2 (fun () ->
      for i = 1 to 8 do
        ignore (Desc_queue.host_enqueue q2 (d i))
      done);
  Alcotest.(check bool) "spin lock touches more words" true
    (words q2 > words q1)

(* check_invariants understands the locking mode: shadow staleness is
   unconstrained under the spin lock (shadows are never consulted), so a
   spin-lock queue stays clean across wraparounds mid-operation — while
   an unsafe-direction shadow refresh in lock-free mode is flagged. *)
let test_queue_invariants_locking_modes () =
  let eng, q =
    mk_queue ~size:4 ~locking:Desc_queue.Spin_lock Desc_queue.Host_to_board
  in
  in_process eng (fun () ->
      for round = 1 to 3 do
        for i = 1 to 3 do
          ignore (Desc_queue.host_enqueue q (d ((round * 10) + i)));
          Alcotest.(check (list string)) "clean after enqueue" []
            (Desc_queue.check_invariants ~name:"spin" q)
        done;
        for _ = 1 to 3 do
          ignore (board eng (Desc_queue.board_dequeue_then q));
          Alcotest.(check (list string)) "clean after dequeue" []
            (Desc_queue.check_invariants ~name:"spin" q)
        done
      done);
  let eng2, q2 =
    mk_queue ~size:4 ~locking:Desc_queue.Lock_free Desc_queue.Host_to_board
  in
  Desc_queue.set_test_mutation q2 Desc_queue.Eager_shadow_tail;
  in_process eng2 (fun () ->
      for i = 1 to 3 do
        ignore (Desc_queue.host_enqueue q2 (d i))
      done;
      ignore (Desc_queue.host_probe_full q2);
      Alcotest.(check bool) "unsafe shadow refresh flagged" true
        (Desc_queue.check_invariants ~name:"lf" q2 <> []))

(* Interleaved producer/consumer property: everything enqueued is dequeued
   exactly once, in order, under arbitrary schedules. *)
let queue_linearizable =
  QCheck.Test.make ~name:"desc_queue: interleaved FIFO integrity" ~count:60
    QCheck.(pair (int_range 1 60) (int_range 0 1000))
    (fun (n, seed) ->
      let eng = Engine.create () in
      let q =
        Desc_queue.create eng ~size:8 ~direction:Desc_queue.Host_to_board
          ~locking:Desc_queue.Lock_free ~hooks:Desc_queue.free_hooks ()
      in
      let rng = Rng.create ~seed in
      let got = ref [] in
      Process.spawn eng ~name:"producer" (fun () ->
          for i = 1 to n do
            while not (Desc_queue.host_enqueue q (d i)) do
              Process.sleep eng 3
            done;
            Process.sleep eng (Rng.int rng 5)
          done);
      Process.spawn eng ~name:"consumer" (fun () ->
          let consumed = ref 0 in
          while !consumed < n do
            (match board eng (Desc_queue.board_dequeue_then q) with
            | Some x ->
                got := x.Desc.vci :: !got;
                incr consumed
            | None -> ());
            Process.sleep eng (Rng.int rng 7)
          done);
      Engine.run eng;
      List.rev !got = List.init n (fun i -> i + 1))

(* Whole-board loopback: a PDU queued on the transmit side arrives intact
   in the receive buffers of a second board. *)
let board_loopback ?(dma_mode = Board.Double_cell) ?(pdu_len = 5000)
    ?(link_cfg = Atm_link.default_config) () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(8 lsl 20) ~page_size:4096 () in
  let bus_a = Tc.create eng Tc.Shared_bus in
  let bus_b = Tc.create eng Tc.Shared_bus in
  let cfg = { Board.default_config with Board.dma_mode } in
  let interrupts = ref [] in
  let board_a =
    Board.create eng ~bus:bus_a ~mem
      ~on_interrupt:(fun r -> interrupts := r :: !interrupts)
      cfg
  in
  let board_b =
    Board.create eng ~bus:bus_b ~mem
      ~on_interrupt:(fun r -> interrupts := r :: !interrupts)
      cfg
  in
  let rng = Rng.create ~seed:8 in
  let ab = Atm_link.create eng (Rng.split rng) link_cfg in
  let ba = Atm_link.create eng (Rng.split rng) link_cfg in
  Board.attach board_a ~tx_link:ab ~rx_link:ba;
  Board.attach board_b ~tx_link:ba ~rx_link:ab;
  Board.start board_a;
  Board.start board_b;
  let vci = 7 in
  Board.bind_vci board_b ~vci (Board.kernel_channel board_b);
  (* Receive buffers for B. *)
  let rx_buf_size = 16 * 1024 in
  let free_q = Board.free_queue (Board.kernel_channel board_b) in
  let rx_q = Board.rx_queue (Board.kernel_channel board_b) in
  let tx_q = Board.tx_queue (Board.kernel_channel board_a) in
  (* Source data in "host memory" of A. *)
  let src_addr = 1 lsl 20 in
  let payload = Bytes.init pdu_len (fun i -> Char.chr ((i * 3) land 0xff)) in
  Phys_mem.blit_from_bytes mem ~src:payload ~src_off:0 ~dst:src_addr
    ~len:pdu_len;
  let result = ref None in
  Process.spawn eng ~name:"host" (fun () ->
      (* stock B's free queue *)
      for i = 0 to 3 do
        ignore
          (Desc_queue.host_enqueue free_q
             (Desc.v ~addr:((2 lsl 20) + (i * rx_buf_size)) ~len:rx_buf_size ()))
      done;
      (* queue the PDU on A as a 2-buffer chain *)
      let cut = pdu_len / 2 in
      ignore
        (Desc_queue.host_enqueue tx_q
           (Desc.v ~addr:src_addr ~len:cut ~vci ~eop:false ()));
      ignore
        (Desc_queue.host_enqueue tx_q
           (Desc.v ~addr:(src_addr + cut) ~len:(pdu_len - cut) ~vci ~eop:true
              ()));
      (* wait for the receive queue to yield a complete PDU *)
      let chain = ref [] in
      let finished = ref false in
      while not !finished do
        (match Desc_queue.host_dequeue rx_q with
        | Some desc ->
            chain := desc :: !chain;
            if desc.Desc.eop then finished := true
        | None -> Process.sleep eng 50_000);
        if Engine.now eng > 1_000_000_000 then failwith "timeout"
      done;
      let framed =
        Copying.bytes_of_descs mem (List.rev !chain)
      in
      result := Some (Copying.deframe framed));
  Engine.run ~until:2_000_000_000 eng;
  (payload, !result, board_a, board_b)

let test_loopback_intact () =
  let payload, result, board_a, board_b = board_loopback () in
  (match result with
  | Some (Ok data) ->
      Alcotest.(check bytes) "payload intact" payload data
  | Some (Error e) -> Alcotest.fail ("deframe: " ^ e)
  | None -> Alcotest.fail "no PDU received");
  let sa = Board.stats board_a and sb = Board.stats board_b in
  Alcotest.(check int) "one PDU sent" 1 sa.Board.pdus_sent;
  Alcotest.(check int) "one PDU received" 1 sb.Board.pdus_received;
  Alcotest.(check int) "cells conserved" sa.Board.cells_sent
    sb.Board.cells_received

let test_loopback_single_cell () =
  let payload, result, _, _ = board_loopback ~dma_mode:Board.Single_cell () in
  match result with
  | Some (Ok data) -> Alcotest.(check bytes) "payload intact" payload data
  | _ -> Alcotest.fail "single-cell loopback failed"

let test_loopback_with_skew () =
  let link_cfg =
    {
      Atm_link.default_config with
      Atm_link.skew = [| 0; 5000; 10000; 15000 |];
    }
  in
  let payload, result, _, board_b = board_loopback ~link_cfg () in
  (match result with
  | Some (Ok data) -> Alcotest.(check bytes) "payload intact" payload data
  | _ -> Alcotest.fail "skewed loopback failed");
  (* Skew destroys double-cell combining (paper §2.6). *)
  let sb = Board.stats board_b in
  Alcotest.(check bool)
    (Printf.sprintf "combining suppressed (%d)" sb.Board.combined_dmas)
    true
    (sb.Board.combined_dmas < 5)

let test_double_cell_combines () =
  (* Combining engages when cells queue up faster than single-cell DMA
     drains them: saturate a lone board with the fictitious source. *)
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(8 lsl 20) ~page_size:4096 () in
  let bus = Tc.create eng Tc.Shared_bus in
  let board =
    Board.create eng ~bus ~mem ~on_interrupt:ignore
      { Board.default_config with Board.dma_mode = Board.Double_cell }
  in
  Board.bind_vci board ~vci:7 (Board.kernel_channel board);
  let pdu = Bytes.init 16000 (fun i -> Char.chr (i land 0xff)) in
  Board.start_fictitious_source board ~pdus:[ (7, pdu) ] ();
  Board.start board;
  let free_q = Board.free_queue (Board.kernel_channel board) in
  let rx_q = Board.rx_queue (Board.kernel_channel board) in
  Process.spawn eng ~name:"host" (fun () ->
      for i = 0 to 30 do
        ignore
          (Desc_queue.host_enqueue free_q
             (Desc.v ~addr:((2 lsl 20) + (i * 16384)) ~len:16384 ()))
      done;
      (* keep draining so buffers recycle *)
      let rec loop () =
        (match Desc_queue.host_dequeue rx_q with
        | Some d ->
            ignore
              (Desc_queue.host_enqueue free_q
                 (Desc.v ~addr:d.Desc.addr ~len:16384 ()))
        | None -> Process.sleep eng 50_000);
        loop ()
      in
      loop ());
  Engine.run ~until:5_000_000 eng;
  let sb = Board.stats board in
  Alcotest.(check bool)
    (Printf.sprintf "combined %d of %d cells" sb.Board.combined_dmas
       sb.Board.cells_received)
    true
    (sb.Board.combined_dmas * 2 > sb.Board.cells_received / 2);
  Alcotest.(check bool) "PDUs flowed" true (sb.Board.pdus_received > 10)

(* Reference model for the board's DMA planning: the list-based span
   arithmetic the board used before it cut a plan per PDU and a piece
   array per cell. A DMA transaction never crosses a page boundary
   (§2.5.2) nor a buffer's end. *)
let split_at_pages page_size (addr, len) =
  let rec go addr len acc =
    if len = 0 then List.rev acc
    else begin
      let to_boundary = page_size - (addr mod page_size) in
      let chunk = min len to_boundary in
      go (addr + chunk) (len - chunk) ((addr, chunk) :: acc)
    end
  in
  go addr len []

(* Map [off, off+len) of the PDU data (laid out along the descriptor
   chain) to physical (addr, len) spans. *)
let chain_spans chain ~off ~len =
  let rec go chain off len acc =
    if len = 0 then List.rev acc
    else
      match chain with
      | [] -> invalid_arg "model: range beyond descriptor chain"
      | (d : Desc.t) :: rest ->
          if off >= d.Desc.len then go rest (off - d.Desc.len) len acc
          else begin
            let chunk = min len (d.Desc.len - off) in
            go (d :: rest) (off + chunk) (len - chunk)
              ((d.Desc.addr + off, chunk) :: acc)
          end
  in
  go chain off len []

(* Target (buffer, addr, len) spans for a placement at framed-PDU
   [offset], buffer [i] of size [bs] starting at [bufs.(i)]. *)
let placement_spans ~bufs ~bs ~offset ~len =
  let rec go offset len acc =
    if len = 0 then List.rev acc
    else begin
      let idx = offset / bs and in_buf = offset mod bs in
      let chunk = min len (bs - in_buf) in
      go (offset + chunk) (len - chunk) ((idx, bufs.(idx) + in_buf, chunk) :: acc)
    end
  in
  go offset len []

type dma_shape = {
  pdu_len : int;
  frags : (int * int) list;  (** transmit chain: (addr, len) per descriptor *)
  rx_bs : int;  (** uniform receive buffer size *)
  rx_bufs : int array;  (** receive buffer addresses, in free-queue order *)
  double : bool;  (** Double_cell rather than Single_cell *)
}

let page = 4096

let rec gaps = function a :: (b :: _ as rest) -> (b - a) :: gaps rest | _ -> []

let dma_shape_gen =
  let open QCheck.Gen in
  let* pdu_len = int_range 1 12_000 in
  let* nfrag = int_range 1 6 in
  let* cuts = list_repeat (nfrag - 1) (int_range 1 (max 1 (pdu_len - 1))) in
  let cuts = List.sort_uniq compare (List.filter (fun c -> c < pdu_len) cuts) in
  let lens = gaps ((0 :: cuts) @ [ pdu_len ]) in
  (* Each descriptor in its own 64 KB slot at a random offset, so pieces
     start anywhere in a page and straddle page boundaries. *)
  let* offs = list_repeat (List.length lens) (int_range 0 8191) in
  let frags =
    List.mapi
      (fun i (len, o) -> ((1 lsl 20) + (i * 65536) + o, len))
      (List.combine lens offs)
  in
  let framed = Sar.framed_len pdu_len in
  let* contiguous = bool in
  let* rx_bs = int_range 256 (if contiguous then 16_384 else 4096) in
  let nbufs = (framed + rx_bs - 1) / rx_bs in
  (* Half the time a buffer starts so that one of its first cells ends
     exactly on a page boundary: the only place where two one-piece
     cells are contiguous but not in one page. *)
  let start =
    oneof
      [
        int_range 0 4095;
        map (fun j -> (4096 - (44 * j)) land 4095) (int_range 1 60);
      ]
  in
  let* base = start in
  let* frag_offs = list_repeat nbufs start in
  let rx_bufs =
    if contiguous then
      Array.init nbufs (fun i -> (4 lsl 20) + base + (i * rx_bs))
    else
      Array.of_list
        (List.mapi (fun i o -> (4 lsl 20) + (i * 8192) + o) frag_offs)
  in
  let+ double = bool in
  { pdu_len; frags; rx_bs; rx_bufs; double }

let payload_of_shape s =
  Bytes.init s.pdu_len (fun i -> Char.chr (((i * 7) + 3) land 0xff))

let print_dma_shape s =
  let hex a = Printf.sprintf "%#x" a in
  Printf.sprintf "pdu_len=%d frags=[%s] rx_bs=%d rx_bufs=[%s] %s" s.pdu_len
    (String.concat "; "
       (List.map (fun (a, l) -> Printf.sprintf "%s+%d" (hex a) l) s.frags))
    s.rx_bs
    (String.concat "; " (Array.to_list (Array.map hex s.rx_bufs)))
    (if s.double then "Double_cell" else "Single_cell")

(* What the model expects of one PDU sent A -> B: the length of every
   transmit fetch; per cell its receive pieces and the number of buffers
   posted before its command runs; per buffer its descriptor. *)
type dma_model = {
  tx_spans : int list;
  tx_splits : int;
  cell_pieces : (int * int) list array;  (** (addr, len) per cell *)
  posted_before : int array;
  descs : (int * int * bool) list;  (** (addr, len, eop), posting order *)
}

let dma_model s =
  let chain =
    List.map (fun (addr, len) -> Desc.v ~addr ~len ~vci:7 ~eop:false ()) s.frags
  in
  let framed = Sar.framed_len s.pdu_len in
  let ncells = framed / Cell.data_size in
  let quantum = if s.double then 2 else 1 in
  let tx_spans = ref [] and tx_splits = ref 0 in
  let k = ref 0 in
  while !k < ncells do
    let n = min quantum (ncells - !k) in
    let lo = !k * Cell.data_size in
    let hi = min ((!k + n) * Cell.data_size) s.pdu_len in
    if hi > lo then begin
      let spans =
        List.concat_map (split_at_pages page)
          (chain_spans chain ~off:lo ~len:(hi - lo))
      in
      tx_spans := List.rev_append (List.map snd spans) !tx_spans;
      let n = List.length spans in
      if n > 1 then tx_splits := !tx_splits + n - 1
    end;
    k := !k + n
  done;
  let bs = s.rx_bs in
  let nbufs = Array.length s.rx_bufs in
  let filled = Array.make nbufs 0 in
  let next_post = ref 0 and posted = ref 0 in
  let posted_before = Array.make ncells 0 in
  let cell_pieces =
    Array.init ncells (fun c ->
        posted_before.(c) <- !posted;
        let spans =
          placement_spans ~bufs:s.rx_bufs ~bs ~offset:(c * Cell.data_size)
            ~len:Cell.data_size
        in
        let pieces =
          List.concat_map
            (fun (idx, addr, len) ->
              filled.(idx) <- filled.(idx) + len;
              split_at_pages page (addr, len))
            spans
        in
        if c = ncells - 1 then posted := nbufs
        else begin
          while !next_post < nbufs && filled.(!next_post) >= bs do
            incr next_post
          done;
          posted := !next_post
        end;
        pieces)
  in
  let descs =
    List.init nbufs (fun i ->
        (s.rx_bufs.(i), min bs (framed - (i * bs)), i = nbufs - 1))
  in
  {
    tx_spans = List.rev !tx_spans;
    tx_splits = !tx_splits;
    cell_pieces;
    posted_before;
    descs;
  }

type dma_run = {
  stats_a : Board.stats;
  stats_b : Board.stats;
  writes : (int * int * int) list;
      (** every receive bus transaction: addr, len, buffers posted before *)
  posted : (int * int * bool) list;  (** descriptors the host dequeued *)
  landed : Bytes.t array;  (** each receive buffer's framed bytes *)
  fetch_ns : int;  (** the sender's bus time spent on DMA reads *)
  fetch_cost : int -> int;  (** the sender bus's time for one read *)
}

(* Send one PDU of the given shape between two boards. The sender's bus
   time on DMA reads is its busy time after the host's descriptor
   writes: the board fetches nothing before the chain is complete. *)
let run_dma_shape s =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(8 lsl 20) ~page_size:page () in
  let bus_a = Tc.create eng Tc.Shared_bus in
  let bus_b = Tc.create eng Tc.Shared_bus in
  let dma_mode = if s.double then Board.Double_cell else Board.Single_cell in
  let cfg = { Board.default_config with Board.dma_mode } in
  (* The sender's i960 takes one cycle per cell, so cells arrive at link
     rate and the receive DMA queue backs up: the condition under which
     double-cell DMA merges transactions. *)
  let board_a =
    Board.create eng ~bus:bus_a ~mem ~on_interrupt:ignore
      { cfg with Board.tx_cycles_per_cell = 1; tx_combine_saving_cycles = 0 }
  in
  let rx_q = ref None in
  let writes = ref [] in
  let on_dma_write ~addr ~len =
    let posted = Desc_queue.total_enqueued (Option.get !rx_q) in
    writes := (addr, len, posted) :: !writes
  in
  let board_b =
    Board.create eng ~bus:bus_b ~mem ~on_interrupt:ignore ~on_dma_write cfg
  in
  let rx_queue = Board.rx_queue (Board.kernel_channel board_b) in
  rx_q := Some rx_queue;
  let rng = Rng.create ~seed:8 in
  let ab = Atm_link.create eng (Rng.split rng) Atm_link.default_config in
  let ba = Atm_link.create eng (Rng.split rng) Atm_link.default_config in
  Board.attach board_a ~tx_link:ab ~rx_link:ba;
  Board.attach board_b ~tx_link:ba ~rx_link:ab;
  Board.start board_a;
  Board.start board_b;
  Board.bind_vci board_b ~vci:7 (Board.kernel_channel board_b);
  let payload = payload_of_shape s in
  ignore
    (List.fold_left
       (fun off (addr, len) ->
         Phys_mem.blit_from_bytes mem ~src:payload ~src_off:off ~dst:addr ~len;
         off + len)
       0 s.frags);
  let nfrags = List.length s.frags in
  let pio_ns = ref 0 in
  Process.spawn eng ~name:"host" (fun () ->
      Array.iter
        (fun addr ->
          assert (
            Desc_queue.host_enqueue
              (Board.free_queue (Board.kernel_channel board_b))
              (Desc.v ~addr ~len:s.rx_bs ())))
        s.rx_bufs;
      List.iteri
        (fun i (addr, len) ->
          assert (
            Desc_queue.host_enqueue
              (Board.tx_queue (Board.kernel_channel board_a))
              (Desc.v ~addr ~len ~vci:7 ~eop:(i = nfrags - 1) ())))
        s.frags;
      pio_ns := (Tc.busy_stats bus_a).Resource.busy_time);
  Engine.run ~until:1_000_000_000 eng;
  let fetch_ns = (Tc.busy_stats bus_a).Resource.busy_time - !pio_ns in
  let posted = ref [] in
  Process.spawn eng ~name:"drain" (fun () ->
      let rec go () =
        match Desc_queue.host_dequeue rx_queue with
        | Some d ->
            posted := (d.Desc.addr, d.Desc.len, d.Desc.eop) :: !posted;
            go ()
        | None -> ()
      in
      go ());
  Engine.run ~until:2_000_000_000 eng;
  let framed = Sar.framed_len s.pdu_len in
  {
    stats_a = Board.stats board_a;
    stats_b = Board.stats board_b;
    writes = List.rev !writes;
    posted = List.rev !posted;
    landed =
      Array.mapi
        (fun i addr ->
          Phys_mem.bytes_of_region mem ~addr
            ~len:(min s.rx_bs (framed - (i * s.rx_bs))))
        s.rx_bufs;
    fetch_ns;
    fetch_cost = (fun bytes -> Tc.dma_transaction_ns ~dir:`Read ~bytes);
  }

let dma_plans_match_model =
  QCheck.Test.make ~name:"board: DMA plans match the list model" ~count:150
    (QCheck.make ~print:print_dma_shape dma_shape_gen)
    (fun s ->
      let m = dma_model s in
      let r = run_dma_shape s in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let expect what got want =
        if got <> want then fail "%s %d, model %d" what got want
      in
      let ncells = Array.length m.cell_pieces in
      (* Walk the observed transactions against the model's pieces: each
         is the next piece of the next cell, or (double-cell DMA) two
         consecutive one-piece cells merged in one page. *)
      let rec walk c j merges = function
        | [] ->
            expect "cells written" c ncells;
            merges
        | (addr, len, posted) :: rest -> (
            if c >= ncells then fail "extra transaction %#x+%d" addr len;
            expect
              (Printf.sprintf "cell %d: buffers posted before its DMA" c)
              posted m.posted_before.(c);
            let next = if c + 1 < ncells then m.cell_pieces.(c + 1) else [] in
            match (m.cell_pieces.(c), next) with
            | [ (a1, l1) ], [ (a2, l2) ]
              when j = 0 && s.double && addr = a1 && len = l1 + l2
                   && a2 = a1 + l1
                   && a1 / page = (a2 + l2 - 1) / page ->
                walk (c + 2) 0 (merges + 1) rest
            | pieces, _ ->
                let a', l' = List.nth pieces j in
                if (addr, len) <> (a', l') then
                  fail "cell %d piece %d: wrote %#x+%d, model %#x+%d" c j addr
                    len a' l';
                if j + 1 = List.length pieces then walk (c + 1) 0 merges rest
                else walk c (j + 1) merges rest)
      in
      let merges = walk 0 0 0 r.writes in
      let count f = Array.fold_left (fun n p -> n + f (List.length p)) 0 in
      let framed = Copying.frame (payload_of_shape s) in
      expect "dma_tx_transactions" r.stats_a.Board.dma_tx_transactions
        (List.length m.tx_spans);
      expect "transmit fetch bus time (ns)" r.fetch_ns
        (List.fold_left (fun ns b -> ns + r.fetch_cost b) 0 m.tx_spans);
      expect "transmit boundary_splits" r.stats_a.Board.boundary_splits
        m.tx_splits;
      expect "dma_rx_transactions" r.stats_b.Board.dma_rx_transactions
        (count Fun.id m.cell_pieces);
      expect "receive boundary_splits" r.stats_b.Board.boundary_splits
        (count (fun n -> max 0 (n - 1)) m.cell_pieces);
      expect "combined_dmas (against transactions merged)"
        r.stats_b.Board.combined_dmas merges;
      if r.posted <> m.descs then fail "posted descriptors differ from the model";
      Array.iteri
        (fun i got ->
          let want = Bytes.sub framed (i * s.rx_bs) (Bytes.length got) in
          if not (Bytes.equal got want) then
            fail "receive buffer %d differs from the framed PDU" i)
        r.landed;
      true)

(* The per-VCI preallocated buffer path (the board half of fbufs, §3.1):
   buffers supplied for a VCI are preferred over the generic free queue. *)
let test_vci_buffer_preference () =
  (* A loopback where the VC has private buffers and the generic free
     queue is left empty. *)
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(8 lsl 20) ~page_size:4096 () in
  let bus_a = Tc.create eng Tc.Shared_bus in
  let bus_b = Tc.create eng Tc.Shared_bus in
  let cfg = Board.default_config in
  let board_a = Board.create eng ~bus:bus_a ~mem ~on_interrupt:ignore cfg in
  let board_b = Board.create eng ~bus:bus_b ~mem ~on_interrupt:ignore cfg in
  let rng = Rng.create ~seed:9 in
  let ab = Atm_link.create eng (Rng.split rng) Atm_link.default_config in
  let ba = Atm_link.create eng (Rng.split rng) Atm_link.default_config in
  Board.attach board_a ~tx_link:ab ~rx_link:ba;
  Board.attach board_b ~tx_link:ba ~rx_link:ab;
  Board.start board_a;
  Board.start board_b;
  let vci = 7 in
  Board.bind_vci board_b ~vci (Board.kernel_channel board_b);
  let src_addr = 1 lsl 20 in
  Phys_mem.fill mem ~addr:src_addr ~len:1000 'v';
  let got = ref false in
  Process.spawn eng ~name:"host" (fun () ->
      (* two private 16KB buffers for this VCI; nothing in the free queue *)
      ignore (Board.supply_vci_buffer board_b ~vci
                (Desc.v ~addr:(2 lsl 20) ~len:(16 * 1024) ()));
      ignore (Board.supply_vci_buffer board_b ~vci
                (Desc.v ~addr:((2 lsl 20) + (16 * 1024)) ~len:(16 * 1024) ()));
      Alcotest.(check int) "buffers registered" 2
        (Board.vci_buffer_count board_b ~vci);
      ignore
        (Desc_queue.host_enqueue
           (Board.tx_queue (Board.kernel_channel board_a))
           (Desc.v ~addr:src_addr ~len:1000 ~vci ~eop:true ()));
      let rx_q = Board.rx_queue (Board.kernel_channel board_b) in
      let rec wait () =
        match Desc_queue.host_dequeue rx_q with
        | Some d ->
            Alcotest.(check int) "delivered into the private buffer"
              (2 lsl 20) d.Desc.addr;
            got := true
        | None ->
            Process.sleep eng 10_000;
            if Engine.now eng < 500_000_000 then wait ()
      in
      wait ());
  Engine.run ~until:1_000_000_000 eng;
  Alcotest.(check bool) "PDU received without touching the free queue" true
    !got;
  Alcotest.(check int) "one private buffer consumed" 1
    (Board.vci_buffer_count board_b ~vci)

(* ------------------------------------------------------------------ *)
(* Pinned board scenarios. Each runs a seeded host workload through the
   loopback harness above (two boards, one link each way, two buses) and
   folds what it observes into one MD5: every descriptor the receiving
   host dequeues, with its time and an MD5 of the bytes it names; every
   interrupt; both boards' stats; every used queue's access counters;
   both buses' busy stats; both links' stats; and the engine's
   dispatched events. The digests were recorded when the board's stages
   were fibers: a stage that runs one step at a different instant, or
   in a different order against the hosts, moves at least one of them. *)

type pin = {
  pin_seed : int;
  pin_cfg : Board.config;
  nch : int; (* channels in use on each board, the kernel's included *)
  npdus : int;
  max_len : int;
  rx_buf : int; (* receive buffer size *)
  gate_free : bool; (* gate B's kernel free queue for a window *)
  lossy : bool; (* drop some last cells, so the sweeper fires *)
  restripe : bool; (* cut one channel of A -> B mid-run, then restore it *)
  tx_wait : bool; (* A's host sets the waiting flag on a full queue *)
  late_drain : bool; (* B's host starts draining late: rx overflow *)
  one_bus : bool; (* both boards on one bus, so its waiters queue up *)
}

let pin_default =
  {
    pin_seed = 1;
    pin_cfg = Board.default_config;
    nch = 3;
    npdus = 60;
    max_len = 6000;
    rx_buf = 2048;
    gate_free = false;
    lossy = false;
    restripe = false;
    tx_wait = false;
    late_drain = false;
    one_bus = false;
  }

let irq_name = function
  | Board.Rx_nonempty c -> Printf.sprintf "rx%d" c
  | Board.Tx_half_empty c -> Printf.sprintf "tx%d" c
  | Board.Protection_violation c -> Printf.sprintf "pv%d" c

let pin_horizon = Time.ms 12

(* The receiving host: stock every free queue (and, for [late_drain],
   the per-VCI pools, so more buffers are out than the receive queue
   holds), then poll the receive queues until [pin_horizon], logging
   each descriptor and returning its buffer. *)
let pin_receiver p eng mem rng log board chans =
  let size = p.pin_cfg.Board.queue_size in
  let buf_addr i k = (8 lsl 20) + (i lsl 20) + (k * (p.rx_buf + 256)) in
  Process.spawn eng ~name:"host-b" (fun () ->
      Array.iteri
        (fun i ch ->
          for k = 0 to size - 2 do
            assert (
              Desc_queue.host_enqueue (Board.free_queue ch)
                (Desc.v ~addr:(buf_addr i k) ~len:p.rx_buf ()))
          done;
          if p.late_drain then
            for k = size to (2 * size) - 1 do
              ignore
                (Board.supply_vci_buffer board ~vci:(100 + i)
                   (Desc.v ~addr:(buf_addr i k) ~len:p.rx_buf ()))
            done)
        chans;
      if p.late_drain then Process.sleep eng (Time.ms 2);
      let rec drain_ch i ch =
        match Desc_queue.host_dequeue (Board.rx_queue ch) with
        | Some d ->
            let data =
              if d.Desc.len = 0 then ""
              else
                Digest.to_hex
                  (Digest.bytes
                     (Phys_mem.bytes_of_region mem ~addr:d.Desc.addr
                        ~len:d.Desc.len))
            in
            Printf.bprintf log "desc %d ch%d vci%d %#x+%d%s%s %s\n"
              (Engine.now eng) i
              d.Desc.vci d.Desc.addr d.Desc.len
              (if d.Desc.eop then " eop" else "")
              (if d.Desc.marked then " marked" else "")
              data;
            if d.Desc.len > 0 then
              ignore
                (Desc_queue.host_enqueue (Board.free_queue ch)
                   (Desc.v ~addr:d.Desc.addr ~len:p.rx_buf ()));
            drain_ch i ch
        | None -> ()
      in
      let rec poll () =
        Array.iteri drain_ch chans;
        if Engine.now eng < pin_horizon then begin
          Process.sleep eng (Time.us (10 + Rng.int rng 40));
          poll ()
        end
      in
      poll ())

let pin_digest eng log boards chans buses links =
  let b = Buffer.create 4096 in
  Buffer.add_buffer b log;
  List.iter
    (fun board ->
      let s = Board.stats board in
      Printf.bprintf b
        "stats %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n"
        s.Board.cells_sent s.cells_received s.pdus_sent s.pdus_received
        s.dma_tx_transactions s.dma_rx_transactions s.combined_dmas
        s.boundary_splits s.pdus_dropped_no_buffer s.cells_dropped
        s.reassembly_errors s.protection_faults s.unknown_vci_cells
        s.reassembly_timeouts s.restripe_aborts s.interrupts_suppressed
        s.irq_reasserts)
    boards;
  List.iter
    (Array.iter (fun ch ->
         List.iter
           (fun q ->
             let a = Desc_queue.access_stats q in
             Printf.bprintf b "queue %d %d %d %d %d %d\n" a.Desc_queue.host_reads
               a.host_writes a.board_words a.shadow_hits
               (Desc_queue.total_enqueued q)
               (Desc_queue.total_dequeued q))
           [ Board.tx_queue ch; Board.free_queue ch; Board.rx_queue ch ]))
    chans;
  List.iter
    (fun bus ->
      let s = Tc.busy_stats bus in
      Printf.bprintf b "bus %d %d %d\n" s.Resource.busy_time s.acquisitions
        s.wait_time)
    buses;
  List.iter
    (fun l ->
      let s = Atm_link.stats l in
      Printf.bprintf b "link %d %d %d %d %d %d %d %d %d\n" s.Atm_link.cells_sent
        s.cells_delivered s.dropped_fifo s.dropped_net s.corrupted s.reordered
        s.duplicated s.header_corrupted s.dropped_link_down)
    links;
  Printf.bprintf b "events %d at %d\n" (Engine.events_dispatched eng)
    (Engine.now eng);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Two boards: A's host sends [npdus] PDUs of 1-3 descriptors over
   random channels, B's host receives them. *)
let pin_run p =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(16 lsl 20) ~page_size:page () in
  let bus_a = Tc.create eng Tc.Shared_bus in
  let bus_b =
    if p.one_bus then bus_a
    else Tc.create eng Tc.Shared_bus
  in
  let log = Buffer.create 16384 in
  let note fmt = Printf.bprintf log fmt in
  let rng = Rng.create ~seed:p.pin_seed in
  let rng_a = Rng.split rng and rng_b = Rng.split rng in
  let rng_f = Rng.split rng in
  let irq_a = Signal.create eng and half_empty = ref 0 in
  let on_interrupt side r =
    note "irq %s %s %d\n" side (irq_name r) (Engine.now eng);
    if side = "a" then begin
      (match r with Board.Tx_half_empty _ -> incr half_empty | _ -> ());
      Signal.broadcast irq_a
    end
  in
  let board_a = Board.create eng ~bus:bus_a ~mem ~on_interrupt:(on_interrupt "a") p.pin_cfg in
  let board_b = Board.create eng ~bus:bus_b ~mem ~on_interrupt:(on_interrupt "b") p.pin_cfg in
  let ab = Atm_link.create eng (Rng.split rng) Atm_link.default_config in
  let ba = Atm_link.create eng (Rng.split rng) Atm_link.default_config in
  Board.attach board_a ~tx_link:ab ~rx_link:ba;
  Board.attach board_b ~tx_link:ba ~rx_link:ab;
  let chans board =
    Array.init p.nch (fun i ->
        if i = 0 then Board.kernel_channel board
        else Board.open_channel board ~priority:(1 + (i mod 2)) ())
  in
  let ch_a = chans board_a and ch_b = chans board_b in
  Array.iteri (fun i ch -> Board.bind_vci board_b ~vci:(100 + i) ch) ch_b;
  Board.start board_a;
  Board.start board_b;
  if p.lossy then
    Atm_link.set_cell_filter ab
      (Some (fun _ c -> not (c.Cell.last_of_pdu && Rng.int rng_f 4 = 0)));
  if p.restripe then begin
    ignore
      (Engine.schedule eng ~delay:(Time.us 1500) (fun () ->
           Atm_link.set_link_state ab ~link:2 false));
    ignore
      (Engine.schedule eng ~delay:(Time.us 4000) (fun () ->
           Atm_link.set_link_state ab ~link:2 true))
  end;
  if p.gate_free then begin
    ignore
      (Engine.schedule eng ~delay:(Time.us 800) (fun () ->
           Board.set_free_gate board_b ~ch:0 true));
    ignore
      (Engine.schedule eng ~delay:(Time.us 2500) (fun () ->
           Board.set_free_gate board_b ~ch:0 false))
  end;
  Process.spawn eng ~name:"host-a" (fun () ->
      for j = 0 to p.npdus - 1 do
        let c = Rng.int rng_a p.nch in
        let q = Board.tx_queue ch_a.(c) in
        let len = 1 + Rng.int rng_a p.max_len in
        let src = (1 lsl 20) + ((j mod 32) * 16384) + Rng.int rng_a 4096 in
        Phys_mem.fill mem ~addr:src ~len (Char.chr (j land 0xff));
        let nd = 1 + Rng.int rng_a (min 3 len) in
        let rec put d =
          if not (Desc_queue.host_enqueue q d) then begin
            (* The interrupt fires only once the flag is set and the
               queue is half empty, so a queue still full after the
               flag's write cannot have fired it yet. *)
            if p.tx_wait then begin
              Desc_queue.host_set_waiting q;
              if Desc_queue.is_full q then Signal.wait irq_a
            end
            else Process.sleep eng (Time.us (1 + Rng.int rng_a 20));
            put d
          end
        in
        let rec cut k off =
          let piece = if k = nd - 1 then len - off else (len - off) / (nd - k) in
          put
            (Desc.v ~addr:(src + off) ~len:piece ~vci:(100 + c)
               ~eop:(k = nd - 1) ());
          if k < nd - 1 then cut (k + 1) (off + piece)
        in
        cut 0 0;
        if not p.tx_wait then
          match Rng.int rng_a 3 with
          | 0 -> ()
          | 1 -> Process.sleep eng (Time.us (Rng.int rng_a 30))
          | _ -> Process.sleep eng (Time.us (Rng.int rng_a 300))
      done);
  pin_receiver p eng mem rng_b log board_b ch_b;
  Engine.run ~until:(Time.ms 40) eng;
  let digest =
    pin_digest eng log [ board_a; board_b ] [ ch_a; ch_b ] [ bus_a; bus_b ]
      [ ab; ba ]
  in
  (digest, (Board.stats board_a, Board.stats board_b, !half_empty))

(* One board fed by the fictitious cell source (§4's receive-side
   experiment) at the striped OC-12 payload rate, above what it can
   absorb, so the source blocks on the full input FIFO. *)
let pin_fictitious () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(16 lsl 20) ~page_size:page () in
  let bus = Tc.create eng Tc.Shared_bus in
  let log = Buffer.create 16384 in
  let note fmt = Printf.bprintf log fmt in
  let p =
    {
      pin_default with
      pin_cfg = { Board.default_config with Board.dma_mode = Board.Double_cell };
      nch = 2;
      rx_buf = 4096;
    }
  in
  let board =
    Board.create eng ~bus ~mem
      ~on_interrupt:(fun r -> note "irq %s %d\n" (irq_name r) (Engine.now eng))
      p.pin_cfg
  in
  let chans =
    [| Board.kernel_channel board; Board.open_channel board ~priority:1 () |]
  in
  Array.iteri (fun i ch -> Board.bind_vci board ~vci:(100 + i) ch) chans;
  let pdu n = Bytes.init n (fun i -> Char.chr ((i * 5) land 0xff)) in
  Board.start_fictitious_source board
    ~pdus:[ (100, pdu 9000); (101, pdu 700); (100, pdu 3000) ]
    ();
  Board.start board;
  pin_receiver p eng mem (Rng.create ~seed:3) log board chans;
  Engine.run ~until:(Time.ms 3) eng;
  (pin_digest eng log [ board ] [ chans ] [ bus ] [], Board.stats board)

let pin_cfg ?(dma_mode = Board.Single_cell) ?(tx_mux = Board.Cell_interleave)
    ?(locking = Desc_queue.Lock_free) ?(queue_size = 64)
    ?(reassembly_timeout = 0) () =
  {
    Board.default_config with
    Board.dma_mode;
    tx_mux;
    locking;
    queue_size;
    reassembly_timeout;
  }

(* (name, scenario, what it must exercise given both boards' stats and
   the half-empty interrupts A's host got, pinned digest) *)
let pins =
  let any _ = true in
  [
    ( "single-cell, cell interleave, lock-free, 3 channels",
      { pin_default with pin_seed = 11; pin_cfg = pin_cfg () },
      any,
      "34f53c8306ccd8a94d140b3d1249859d" );
    ( "double-cell, PDU at once, lock-free, 4 channels",
      {
        pin_default with
        pin_seed = 12;
        nch = 4;
        pin_cfg =
          pin_cfg ~dma_mode:Board.Double_cell ~tx_mux:Board.Pdu_at_once ();
      },
      any,
      "6c387a84a0eae7682e6e2e66718e65e0" );
    ( "double-cell, cell interleave, spin lock, 3 channels",
      {
        pin_default with
        pin_seed = 13;
        pin_cfg =
          pin_cfg ~dma_mode:Board.Double_cell ~locking:Desc_queue.Spin_lock ();
      },
      any,
      "f25fe465c13c12d20e437608680b98c6" );
    ( "single-cell, PDU at once, spin lock, 2 channels",
      {
        pin_default with
        pin_seed = 14;
        nch = 2;
        pin_cfg =
          pin_cfg ~tx_mux:Board.Pdu_at_once ~locking:Desc_queue.Spin_lock ();
      },
      any,
      "dfd0b1ef8d4fe5a6b56c8b2f92de5d41" );
    ( "free-buffer starvation",
      {
        pin_default with
        pin_seed = 15;
        gate_free = true;
        pin_cfg = pin_cfg ~dma_mode:Board.Double_cell ();
      },
      (fun (_, b, _) -> b.Board.pdus_dropped_no_buffer > 0),
      "665195de8a763be1863f3857458f095c" );
    ( "reassembly-timeout sweeper",
      {
        pin_default with
        pin_seed = 16;
        lossy = true;
        pin_cfg = pin_cfg ~reassembly_timeout:(Time.us 200) ();
      },
      (fun (_, b, _) -> b.Board.reassembly_timeouts > 0),
      "ea2f6759fcf07a27cd7fc8ae5f1a9744" );
    ( "restripe mid-PDU",
      {
        pin_default with
        pin_seed = 17;
        restripe = true;
        max_len = 12000;
        pin_cfg = pin_cfg ~dma_mode:Board.Double_cell ();
      },
      (fun (_, b, _) -> b.Board.restripe_aborts > 0),
      "7d5a54c77b7c644145617ae4128240a5" );
    ( "transmit queue full, host waits for half empty",
      {
        pin_default with
        pin_seed = 18;
        tx_wait = true;
        rx_buf = 8192;
        pin_cfg = pin_cfg ~queue_size:8 ();
      },
      (fun (_, _, half_empty) -> half_empty > 0),
      "e81e52e1c859ba7df20de620276791dd" );
    ( "both boards and hosts on one bus",
      {
        pin_default with
        pin_seed = 20;
        one_bus = true;
        pin_cfg = pin_cfg ~dma_mode:Board.Double_cell ();
      },
      (fun (_, b, _) -> b.Board.pdus_received > 0),
      "5411ea6cd08a322abe6505722097b335" );
    ( "receive-queue overflow",
      {
        pin_default with
        pin_seed = 19;
        late_drain = true;
        max_len = 1500;
        pin_cfg = pin_cfg ~queue_size:8 ();
      },
      (fun (_, b, _) -> b.Board.cells_dropped > 0),
      "edd953d8088e2375318e6275e810f4e1" );
  ]

let test_board_pins () =
  List.iter
    (fun (name, p, exercised, want) ->
      let digest, seen = pin_run p in
      Alcotest.(check bool) (name ^ ": exercises its case") true
        (exercised seen);
      Alcotest.(check string) (name ^ ": digest") want digest)
    pins

let test_fictitious_pin () =
  let digest, s = pin_fictitious () in
  Alcotest.(check bool) "PDUs received" true (s.Board.pdus_received > 5);
  Alcotest.(check string) "digest" "b865ad235826f6de0cc8f8f816d13d85" digest

(* A stage's exception leaves the engine named after the stage: here
   the receive processor meets free buffers of two sizes in one PDU. *)
let test_stage_failure_named () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(8 lsl 20) ~page_size:page () in
  let board =
    Board.create eng
      ~bus:(Tc.create eng Tc.Shared_bus)
      ~mem ~on_interrupt:ignore Board.default_config
  in
  Board.bind_vci board ~vci:7 (Board.kernel_channel board);
  Board.start_fictitious_source board ~pdus:[ (7, Bytes.make 3000 'x') ] ();
  Board.start board;
  let free_q = Board.free_queue (Board.kernel_channel board) in
  Process.spawn eng ~name:"host" (fun () ->
      List.iter
        (fun (addr, len) ->
          ignore (Desc_queue.host_enqueue free_q (Desc.v ~addr ~len ())))
        [ (2 lsl 20, 1024); (3 lsl 20, 2048) ]);
  Alcotest.check_raises "named after the stage"
    (Process.Process_failure
       ( "rx-processor",
         Failure "Board: receive buffers of one PDU must be uniform" ))
    (fun () -> Engine.run ~until:(Time.ms 1) eng)

(* The transmit processor's segmentation ([Board.frame_chain]: gather
   into the board's buffer, frame there, cut) against the copying form:
   the chain's bytes concatenated, then the old [Sar.segment]. Chains
   of one to four buffers start anywhere in a page, have odd lengths,
   cross pages and may name memory never written; each board frames
   two chains in turn, so a shorter PDU follows a longer one in the
   same buffer. *)
let frame_chain_matches_oracle =
  let chain_gen =
    QCheck.Gen.(
      list_size (1 -- 4)
        (pair (0 -- 255) (1 -- 9000)) (* page index, length *))
  in
  QCheck.Test.make ~name:"board: chain framing matches the copying form"
    ~count:100
    QCheck.(
      make
        Gen.(
          quad chain_gen chain_gen (1 -- 4)
            (pair (0 -- 4095) (0 -- 1_000_000))))
    (fun (c1, c2, nlinks, (start, seed)) ->
      let eng = Engine.create () in
      let mem = Phys_mem.create ~size:(2 * 1024 * 1024) ~page_size:4096 () in
      let bus = Tc.create eng Tc.Shared_bus in
      let board =
        Board.create eng ~bus ~mem ~on_interrupt:ignore Board.default_config
      in
      (* Pages with an even index hold a seeded pattern; odd ones are
         never written and read as zero. *)
      for page = 0 to 260 do
        if page land 1 = 0 then
          Phys_mem.blit_from_bytes mem
            ~src:
              (Bytes.init 4096 (fun i ->
                   Char.chr (((i * 131) + (page * 7919) + seed) land 0xff)))
            ~src_off:0 ~dst:(page * 4096) ~len:4096
      done;
      let chain spec =
        List.map
          (fun (page, len) ->
            Desc.v ~addr:((page * 4096) + start) ~len ~vci:9 ())
          spec
      in
      List.for_all
        (fun spec ->
          let descs = chain spec in
          let vci = 1 + (seed land 0xfff) in
          let got = Board.frame_chain board ~vci ~nlinks descs in
          let want =
            Copying.segment ~vci ~nlinks
              (Copying.bytes_of_descs mem descs)
          in
          List.equal ( = ) (Array.to_list got) want)
        [ c1; c2 ])

let suite =
  [
    Alcotest.test_case "desc_queue: FIFO" `Quick test_queue_fifo;
    Alcotest.test_case "desc_queue: full/empty" `Quick test_queue_full_empty;
    Alcotest.test_case "desc_queue: counters" `Quick test_queue_counters;
    Alcotest.test_case "desc_queue: peek/advance" `Quick
      test_queue_peek_advance;
    Alcotest.test_case "desc_queue: direction" `Quick
      test_queue_direction_enforced;
    Alcotest.test_case "desc_queue: tx-full protocol" `Quick
      test_queue_waiting_protocol;
    Alcotest.test_case "desc_queue: shadow pointers" `Quick
      test_queue_shadow_saves_reads;
    Alcotest.test_case "desc_queue: spin lock traffic" `Quick
      test_queue_spinlock_costs_more;
    Alcotest.test_case "desc_queue: invariants vs locking mode" `Quick
      test_queue_invariants_locking_modes;
    QCheck_alcotest.to_alcotest queue_linearizable;
    Alcotest.test_case "board: loopback intact" `Quick test_loopback_intact;
    Alcotest.test_case "board: single-cell loopback" `Quick
      test_loopback_single_cell;
    Alcotest.test_case "board: loopback under skew" `Quick
      test_loopback_with_skew;
    Alcotest.test_case "board: double-cell combining" `Quick
      test_double_cell_combines;
    Alcotest.test_case "board: per-VCI buffers (fbuf fast path)" `Quick
      test_vci_buffer_preference;
    QCheck_alcotest.to_alcotest dma_plans_match_model;
    QCheck_alcotest.to_alcotest frame_chain_matches_oracle;
    Alcotest.test_case "board: pinned two-board scenarios" `Quick
      test_board_pins;
    Alcotest.test_case "board: pinned fictitious-source scenario" `Quick
      test_fictitious_pin;
    Alcotest.test_case "board: a failing stage is named" `Quick
      test_stage_failure_named;
  ]
