(* Integration tests: two complete hosts exchanging traffic through their
   simulated OSIRIS adaptors. *)

open Osiris_sim
open Osiris_core
module Board = Osiris_board.Board
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Udp = Osiris_proto.Udp
module Ip = Osiris_proto.Ip
module Irq = Osiris_os.Irq

let raw_vci = 9

let test_udp_end_to_end_integrity () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  let received = ref [] in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      received := Msg.read_all msg :: !received;
      Msg.dispose msg);
  let payloads =
    List.map
      (fun (size, tag) -> Bytes.init size (fun i -> Char.chr ((i + tag) land 0xff)))
      [ (1, 1); (4096, 2); (16 * 1024, 3); (60_000, 4) ]
  in
  Process.spawn eng ~name:"tx" (fun () ->
      List.iter
        (fun p ->
          let m = Msg.alloc a.Host.vs ~len:(Bytes.length p) () in
          Msg.blit_into m ~off:0 ~src:p;
          Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m)
        payloads);
  Engine.run ~until:(Time.ms 100) eng;
  let got = List.rev !received in
  Alcotest.(check int) "all delivered" (List.length payloads) (List.length got);
  List.iter2
    (fun want have ->
      Alcotest.(check bool)
        (Printf.sprintf "%d bytes intact" (Bytes.length want))
        true (Bytes.equal want have))
    payloads got

let test_raw_atm_path () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let got = ref None in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      got := Some (Msg.read_all msg);
      Msg.dispose msg);
  let payload = Bytes.init 3000 (fun i -> Char.chr ((i * 3) land 0xff)) in
  Process.spawn eng ~name:"tx" (fun () ->
      let m = Msg.alloc a.Host.vs ~len:3000 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Driver.send a.Host.driver ~vci:raw_vci m);
  Engine.run ~until:(Time.ms 20) eng;
  match !got with
  | Some data -> Alcotest.(check bytes) "raw PDU intact" payload data
  | None -> Alcotest.fail "raw PDU not delivered"

let test_interrupt_coalescing_end_to_end () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let n = ref 0 in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      incr n;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 32 do
        Driver.send a.Host.driver ~vci:raw_vci (Msg.alloc a.Host.vs ~len:1024 ())
      done);
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check int) "all PDUs" 32 !n;
  Alcotest.(check bool)
    (Printf.sprintf "%d interrupts for 32 PDUs" (Irq.count b.Host.irq))
    true
    (Irq.count b.Host.irq < 16)

let test_tx_queue_backpressure () =
  (* More PDUs than the 64-entry transmit queue: the driver must block on
     full and resume via the half-empty interrupt, losing nothing. *)
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let n = ref 0 in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      incr n;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 150 do
        Driver.send a.Host.driver ~vci:raw_vci
          (Msg.alloc a.Host.vs ~len:8192 ())
      done);
  Engine.run ~until:(Time.s 1) eng;
  Alcotest.(check int) "no loss under backpressure" 150 !n;
  Alcotest.(check bool) "driver actually stalled" true
    ((Driver.stats a.Host.driver).Driver.tx_full_stalls > 0)

let test_tx_completion_reclaims () =
  (* After transmission completes (tail advance), the driver unwires and
     frees message memory — nothing stays wired forever. *)
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      Msg.dispose msg);
  let wired_before = Osiris_mem.Vspace.wired_pages a.Host.vs in
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 10 do
        Driver.send a.Host.driver ~vci:raw_vci
          (Msg.alloc a.Host.vs ~len:8192 ())
      done);
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check int) "wired pages back to baseline" wired_before
    (Osiris_mem.Vspace.wired_pages a.Host.vs)

let test_overload_recovers () =
  (* Offered load far beyond capacity: the board drops, the host survives,
     and when the storm ends the system still works. *)
  let eng = Engine.create () in
  let host =
    Host.create eng Machine.ds5000_200 ~addr:0x0a000002l Host.default_config
  in
  let payload = Bytes.make 4096 'x' in
  let dg = Udp.datagram_image ~src_port:9 ~dst_port:7 ~checksum:false payload in
  let frags =
    List.concat_map
      (fun id ->
        Ip.fragment_images ~id Host.default_config.Host.ip ~page_size:4096
          ~src:0x0a000001l ~dst:0x0a000002l ~proto:Udp.protocol_number dg)
      [ 1; 2; 3; 4; 5 ]
  in
  Board.start_fictitious_source host.Host.board
    ~pdus:(List.map (fun f -> (Host.ip_vci host, f)) frags)
    ();
  Host.start host;
  let n = ref 0 in
  Host.new_udp_test_receiver host ~port:7 ~on_msg:(fun ~len:_ -> incr n);
  Engine.run ~until:(Time.ms 50) eng;
  let mid = !n in
  Alcotest.(check bool) "delivering under overload" true (mid > 0);
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check bool) "still delivering (no buffer leak)" true (!n > mid)

let test_spinlock_configuration_works () =
  let cfg =
    {
      Host.default_config with
      board =
        { Board.default_config with
          Board.locking = Osiris_board.Desc_queue.Spin_lock };
    }
  in
  let eng = Engine.create () in
  let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l cfg in
  let b =
    Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
      { cfg with seed = 43 }
  in
  ignore (Network.connect eng a b);
  let got = ref 0 in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      incr got;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 5 do
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
          (Msg.alloc a.Host.vs ~len:2000 ())
      done);
  Engine.run ~until:(Time.ms 50) eng;
  Alcotest.(check int) "spin-locked queues still correct" 5 !got

let test_link_corruption_dropped_not_delivered () =
  let eng = Engine.create () in
  let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l
      Host.default_config in
  let b = Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
      { Host.default_config with seed = 43 } in
  let net = Network.connect eng a b in
  List.iter
    (fun l -> Osiris_link.Atm_link.set_corrupt_prob l 0.002)
    [ net.Network.a_to_b; net.Network.b_to_a ];
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let good = ref 0 in
  let template = Bytes.init 8192 (fun i -> Char.chr ((i * 5) land 0xff)) in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      (* Every delivered PDU must be intact: corrupted ones die at the CRC. *)
      if Bytes.equal (Msg.read_all msg) template then incr good
      else Alcotest.fail "corrupted PDU delivered";
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 30 do
        let m = Msg.alloc a.Host.vs ~len:8192 () in
        Msg.blit_into m ~off:0 ~src:template;
        Driver.send a.Host.driver ~vci:raw_vci m
      done);
  Engine.run ~until:(Time.ms 200) eng;
  let drops = (Driver.stats b.Host.driver).Driver.crc_drops in
  Alcotest.(check bool)
    (Printf.sprintf "some corrupted (%d dropped), some clean (%d)" drops !good)
    true
    (drops > 0 && !good > 0 && !good + drops = 30)

(* Randomized end-to-end integrity: any mix of message sizes arrives
   intact and in order, under any seed. *)
let e2e_random_integrity =
  QCheck.Test.make ~name:"end-to-end: random messages intact & ordered"
    ~count:8
    QCheck.(pair (int_range 0 1000) (list_of_size Gen.(1 -- 6) (int_range 1 40_000)))
    (fun (seed, sizes) ->
      let cfg = { Host.default_config with seed = 100 + seed } in
      let eng = Engine.create () in
      let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l cfg in
      let b =
        Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
          { cfg with seed = 200 + seed }
      in
      ignore (Network.connect eng a b);
      let got = ref [] in
      Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
          got := Msg.read_all msg :: !got;
          Msg.dispose msg);
      let payloads =
        List.mapi
          (fun i size ->
            Bytes.init size (fun j -> Char.chr ((j + (i * 17) + seed) land 0xff)))
          sizes
      in
      Process.spawn eng ~name:"tx" (fun () ->
          List.iter
            (fun p ->
              let m = Msg.alloc a.Host.vs ~len:(Bytes.length p) () in
              Msg.blit_into m ~off:0 ~src:p;
              Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m)
            payloads);
      Engine.run ~until:(Time.ms 200) eng;
      let got = List.rev !got in
      List.length got = List.length payloads
      && List.for_all2 Bytes.equal payloads got)

let test_snapshot () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg -> Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
        (Msg.alloc a.Host.vs ~len:4096 ()));
  Engine.run ~until:(Time.ms 10) eng;
  let snap = Snapshot.take ~name:"B" b in
  Alcotest.(check int) "snapshot sees the PDU" 1
    snap.Snapshot.board.Board.pdus_received;
  let rendered = Format.asprintf "%a" Snapshot.pp snap in
  Alcotest.(check bool) "renders" true (String.length rendered > 100)

let test_full_cache_swap_policy () =
  (* Eager_full must deliver correctly (like the other policies). *)
  let cfg = { Host.default_config with invalidation = Driver.Eager_full } in
  let eng = Engine.create () in
  let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l cfg in
  let b = Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
      { cfg with seed = 43 } in
  ignore (Network.connect eng a b);
  let got = ref None in
  let payload = Bytes.init 5000 (fun i -> Char.chr ((i * 11) land 0xff)) in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      got := Some (Msg.read_all msg);
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      let m = Msg.alloc a.Host.vs ~len:5000 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m);
  Engine.run ~until:(Time.ms 50) eng;
  (match !got with
  | Some data -> Alcotest.(check bytes) "intact under full swap" payload data
  | None -> Alcotest.fail "lost");
  Alcotest.(check bool) "cache did get flushed" true
    ((Osiris_cache.Data_cache.stats b.Host.cache)
       .Osiris_cache.Data_cache.invalidated_lines > 0)

let test_small_buffers_noncontiguous_pool () =
  (* Regression: with page-fragment buffers and [rx_buffer_size] smaller
     than a page, the buffer-count ratio rounded down to zero and the
     receive path wedged with an empty pool. *)
  let machine =
    { Machine.ds5000_200 with Machine.rx_buffer_size = 2048;
      rx_pool_buffers = 16 }
  in
  let cfg = { Host.default_config with Host.contiguous_buffers = false } in
  let eng = Engine.create () in
  let a = Host.create eng machine ~addr:0x0a000001l cfg in
  let b =
    Host.create eng machine ~addr:0x0a000002l { cfg with Host.seed = 43 }
  in
  Alcotest.(check bool) "pool stocked despite sub-page rx_buffer_size" true
    (Driver.pool_available b.Host.driver > 0);
  ignore (Network.connect eng a b);
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let got = ref None in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      got := Some (Msg.read_all msg);
      Msg.dispose msg);
  let payload = Bytes.init 6000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Process.spawn eng ~name:"tx" (fun () ->
      let m = Msg.alloc a.Host.vs ~len:6000 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Driver.send a.Host.driver ~vci:raw_vci m);
  Engine.run ~until:(Time.ms 50) eng;
  match !got with
  | Some data -> Alcotest.(check bytes) "delivered through fragments" payload data
  | None -> Alcotest.fail "receive path wedged (empty buffer pool)"

let test_long_descriptor_chains () =
  (* Regression for the receive thread's chain bookkeeping: a PDU spread
     over many small buffers (~25 descriptors each here) must reassemble
     intact, with the trailer read from the true last descriptor. *)
  let machine = { Machine.ds5000_200 with Machine.rx_buffer_size = 2048 } in
  let eng = Engine.create () in
  let a = Host.create eng machine ~addr:0x0a000001l Host.default_config in
  let b =
    Host.create eng machine ~addr:0x0a000002l
      { Host.default_config with Host.seed = 43 }
  in
  ignore (Network.connect eng a b);
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let got = ref [] in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      got := Msg.read_all msg :: !got;
      Msg.dispose msg);
  let payloads =
    List.map
      (fun tag -> Bytes.init 50_000 (fun i -> Char.chr ((i * tag) land 0xff)))
      [ 3; 11 ]
  in
  Process.spawn eng ~name:"tx" (fun () ->
      List.iter
        (fun p ->
          let m = Msg.alloc a.Host.vs ~len:(Bytes.length p) () in
          Msg.blit_into m ~off:0 ~src:p;
          Driver.send a.Host.driver ~vci:raw_vci m;
          (* Pace the sends: with 2 KB buffers the receive processor has 8x
             the per-buffer work, and back-to-back 50 KB PDUs would overrun
             its cell FIFO — overload behavior, not what this test pins. *)
          Process.sleep eng (Time.ms 20))
        payloads);
  Engine.run ~until:(Time.s 1) eng;
  let got = List.rev !got in
  Alcotest.(check int) "both PDUs delivered" 2 (List.length got);
  List.iter2
    (fun want have ->
      Alcotest.(check bool) "long chain intact" true (Bytes.equal want have))
    payloads got

(* Bulk VC setup must be O(1) amortized: after the first circuit between
   a host pair, path discovery comes out of the topology's cache, so
   opening thousands of VCs costs thousands of table inserts — not
   thousands of graph traversals. Sys.time is a coarse guard here; the
   sharp assertion is the enumeration counter. *)
let test_bulk_vc_setup () =
  let _eng, topo = Network.star ~n:4 () in
  let recv = Network.host topo 0 in
  let baseline = Board.demux_vcs recv.Host.board in
  let t0 = Sys.time () in
  let n = 4096 in
  for i = 0 to n - 1 do
    let src = 1 + (i mod 3) in
    ignore (Network.open_vc topo ~src ~dst:0)
  done;
  let elapsed = Sys.time () -. t0 in
  let enums = Network.path_enumerations topo in
  if enums > 3 then
    Alcotest.failf "%d path enumerations for 3 (src,dst) pairs" enums;
  if elapsed > 5.0 then
    Alcotest.failf "opening %d VCs took %.1fs" n elapsed;
  (* Every VC is live at the receiving board. *)
  Alcotest.(check int) "receiver demux entries" n
    (Board.demux_vcs recv.Host.board - baseline)

(* Host memory is sparse: building hosts writes no frame, and a run
   makes resident only the frames its buffers touch. A set-up step that
   writes the whole image, or every buffer, fails here. *)
let resident h = Osiris_mem.Phys_mem.resident_frames h.Host.mem

let test_fresh_hosts_not_resident () =
  List.iter
    (fun machine ->
      let h =
        Host.create (Engine.create ()) machine ~addr:0x0a000001l
          Host.default_config
      in
      Alcotest.(check int) (machine.Machine.name ^ ": resident frames") 0
        (resident h))
    [ Machine.ds5000_200; Machine.dec3000_600 ];
  let _eng, topo = Network.star ~n:9 () in
  for i = 0 to Network.nhosts topo - 1 do
    Alcotest.(check int)
      (Printf.sprintf "star host %d: resident frames" i)
      0
      (resident (Network.host topo i))
  done

(* The live heap a freshly created host adds, per profile: its frame
   tables, free list and cache, and nothing sized by what a run might
   write. Measured at 0.54 MB for the DECstation and 2.48 MB for the
   Alpha, of which the 2 MB of cache line bytes are an allocation whose
   untouched pages the OS never maps; before the frame blocks and tag
   chunks (DESIGN §19), 0.57 and 2.97 MB. *)
let test_fresh_host_live_heap () =
  let bounds = [ ("DEC 5000/200", 0.6); ("DEC 3000/600", 2.6) ] in
  List.iter
    (fun machine ->
      let bound_mb = List.assoc machine.Machine.name bounds in
      Gc.full_major ();
      let before = (Gc.stat ()).Gc.live_words in
      let h =
        Host.create (Engine.create ()) machine ~addr:0x0a000001l
          Host.default_config
      in
      Gc.full_major ();
      let mb =
        float_of_int (((Gc.stat ()).Gc.live_words - before) * (Sys.word_size / 8))
        /. 1048576.
      in
      ignore (Sys.opaque_identity h);
      if mb > bound_mb then
        Alcotest.failf "%s: a fresh host holds %.2f MB live (bound %.2f MB)"
          machine.Machine.name mb bound_mb)
    [ Machine.ds5000_200; Machine.dec3000_600 ]

(* Nothing process-global keeps a host alive: 200 DECstation pairs,
   each built, run for 1 ms and dropped, leave only their metrics
   handles registered (8.5 MB), and [Metrics.reset] frees those. A
   registry entry that closes over a driver, switch or CPU keeps its
   whole host: about 1 MB per pair. *)
let test_dropped_pairs_freed () =
  let live_mb () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
    /. 1048576.
  in
  Osiris_obs.Metrics.reset ();
  let start = live_mb () in
  for _ = 1 to 200 do
    let eng, _net = Network.pair () in
    Engine.run ~until:(Time.ms 1) eng
  done;
  let kept = live_mb () -. start in
  if kept > 16. then
    Alcotest.failf "200 dropped pairs keep %.1f MB live (bound 16 MB)" kept;
  Osiris_obs.Metrics.reset ();
  let left = live_mb () -. start in
  if left > 1. then
    Alcotest.failf "%.1f MB stay live after Metrics.reset (bound 1 MB)" left

let test_udp_exchange_residency () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  let n = 4 and size = 8192 in
  let got = ref 0 in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      incr got;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for i = 1 to n do
        let m = Msg.alloc a.Host.vs ~len:size () in
        Msg.blit_into m ~off:0 ~src:(Bytes.make size (Char.chr i));
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m
      done);
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check int) "all delivered" n !got;
  let ps = a.Host.machine.Machine.page_size in
  let pages len = (len + ps - 1) / ps in
  (* Each datagram writes its payload's pages plus a UDP and an IP
     header page on the sender, and lands in one receive buffer. *)
  let tx_bound = n * (pages size + 2)
  and rx_bound = n * pages b.Host.machine.Machine.rx_buffer_size in
  let ra = resident a and rb = resident b in
  if ra = 0 || ra > tx_bound then
    Alcotest.failf "sender: %d resident frames, expected 1..%d" ra tx_bound;
  if rb = 0 || rb > rx_bound then
    Alcotest.failf "receiver: %d resident frames, expected 1..%d" rb rx_bound

(* The driver's trailer check (the CRC folded over host memory, the
   trailer's 8 bytes copied) against the copying form: the chain's bytes
   concatenated, then the old whole-buffer check. The framed PDU is cut
   into buffers of random sizes at scattered, unaligned addresses, so
   the trailer may straddle buffers; it is damaged in one of five ways,
   or not at all: a flipped CRC byte, a length field that frames to
   another size (with a CRC to match), a flipped payload byte, bytes cut
   off the end, or a buffer left unwritten. *)
let trailer_check_matches_copying =
  QCheck.Test.make ~name:"driver: trailer check matches the copying form"
    ~count:300
    QCheck.(
      make
        Gen.(
          quad (0 -- 3000) (list_size (1 -- 8) (1 -- 700)) (0 -- 5)
            (pair small_nat (0 -- 1000))))
    (fun (pdu_len, cuts, damage, (k, seed)) ->
      let module Phys_mem = Osiris_mem.Phys_mem in
      let module Desc = Osiris_board.Desc in
      let module Sar = Osiris_atm.Sar in
      let pdu = Bytes.init pdu_len (fun i -> Char.chr (((i * 29) + seed) land 0xff)) in
      let framed = Copying.frame pdu in
      let total = Bytes.length framed in
      (match damage with
      | 1 ->
          let i = total - 1 - (k mod 4) in
          Bytes.set framed i (Char.chr (Char.code (Bytes.get framed i) lxor 0x80))
      | 2 ->
          Bytes.set_int32_be framed (total - 8) (Int32.of_int (total + k));
          Bytes.set_int32_be framed (total - 4)
            (Osiris_util.Crc32.compute framed ~off:0 ~len:(total - 4))
      | 3 ->
          let i = k mod total in
          Bytes.set framed i (Char.chr (Char.code (Bytes.get framed i) lxor 0x04))
      | _ -> ());
      let framed =
        if damage = 4 then Bytes.sub framed 0 (total - 1 - (k mod total)) else framed
      in
      let mem = Phys_mem.create ~size:(1 lsl 20) ~page_size:4096 () in
      (* Cut the framed bytes into buffers, each at its own page with an
         odd offset; the last takes the rest. *)
      let rec place i off cuts acc =
        let left = Bytes.length framed - off in
        if left <= 0 then List.rev acc
        else begin
          let len = match cuts with c :: _ -> min c left | [] -> left in
          let addr = (((i * 3) + 1) * 4096) + (((i * 37) + seed) mod 3000) in
          if not (damage = 5 && i = k mod (List.length cuts + 1)) then
            Phys_mem.blit_from_bytes mem ~src:framed ~src_off:off ~dst:addr ~len;
          let rest = match cuts with _ :: r -> r | [] -> [] in
          place (i + 1) (off + len) rest (Desc.v ~addr ~len () :: acc)
        end
      in
      let chain = place 0 0 cuts [] in
      let want =
        Copying.deframe_check
          (Copying.bytes_of_descs mem chain)
      in
      Driver.trailer_check mem chain = want
      &&
      match damage with
      | 0 -> Result.is_ok want
      | 5 -> true (* zeros can pass, where the PDU held only zeros *)
      | _ -> Result.is_error want)

(* Both hosts of a DECstation pair send each other datagrams at the same
   instants, checksums on and lazy invalidation, so both checksum output
   and input at overlapping simulated times. A pool of three receive
   buffers keeps recycled buffers' lines in the 64 KB cache, so reads
   come back stale and the checksum has something to catch. Returns,
   per host, the digest of the delivered bytes in arrival order, how
   many delivered datagrams are byte-exact copies of one the peer sent,
   and the counts the checksum path moves. *)
let two_way_sends = 12

let two_way_payload ~host k =
  let len = 2000 + (k * 1500) + (host * 333) in
  Bytes.init len (fun j -> Char.chr ((j + (k * 41) + (host * 97)) land 0xff))

type two_way = {
  digest : string;
  delivered : int;
  exact : int;
  errors : int;
  recoveries : int;
  stale : int;
}

let two_way_lazy_run ?(gap = Time.ms 1) () =
  let machine = { Machine.ds5000_200 with Machine.rx_pool_buffers = 3 } in
  let config = { Host.default_config with Host.udp_checksum = true } in
  let eng, net =
    Network.pair ~machine_a:machine ~machine_b:machine ~config ()
  in
  let hosts = [| net.Network.a; net.Network.b |] in
  let got = Array.make 2 [] in
  Array.iteri
    (fun i (h : Host.t) ->
      Udp.bind h.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
          got.(i) <- Msg.read_all msg :: got.(i);
          Msg.dispose msg))
    hosts;
  Array.iteri
    (fun i (h : Host.t) ->
      let peer = hosts.(1 - i) in
      Process.spawn eng ~name:(Printf.sprintf "tx%d" i) (fun () ->
          for k = 0 to two_way_sends - 1 do
            let payload = two_way_payload ~host:i k in
            let m = Msg.alloc h.Host.vs ~len:(Bytes.length payload) () in
            Msg.blit_into m ~off:0 ~src:payload;
            Udp.output h.Host.udp ~dst:peer.Host.addr ~src_port:9 ~dst_port:7 m;
            Process.sleep eng gap
          done))
    hosts;
  Engine.run ~until:(Time.ms 200) eng;
  Array.mapi
    (fun i (h : Host.t) ->
      let u = Udp.stats h.Host.udp in
      let c = Osiris_cache.Data_cache.stats h.Host.cache in
      let got = List.rev got.(i) in
      let sent = List.init two_way_sends (two_way_payload ~host:(1 - i)) in
      {
        digest = Digest.to_hex (Digest.bytes (Bytes.concat Bytes.empty got));
        delivered = List.length got;
        exact =
          List.length (List.filter (fun b -> List.exists (Bytes.equal b) sent) got);
        errors = u.Udp.checksum_errors;
        recoveries = u.Udp.stale_recoveries;
        stale = c.Osiris_cache.Data_cache.stale_reads;
      })
    hosts

(* Major-heap words per delivered 16 KB datagram over a DEC 3000/600
   pair with checksums on, the sink reading each datagram once. *)
let major_words_per_datagram () =
  let machine = Machine.dec3000_600 in
  let config = { Host.default_config with Host.udp_checksum = true } in
  let eng, net = Network.pair ~machine_a:machine ~machine_b:machine ~config () in
  let a = net.Network.a and b = net.Network.b in
  let n = 40 and len = 16 * 1024 in
  let payload = Bytes.init len (fun j -> Char.chr ((j * 7) land 0xff)) in
  let delivered = ref 0 in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      if Bytes.equal (Msg.read_all msg) payload then incr delivered;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to n do
        let m = Msg.alloc a.Host.vs ~len () in
        Msg.blit_into m ~off:0 ~src:payload;
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m;
        Process.sleep eng (Time.ms 1)
      done);
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  Engine.run ~until:(Time.ms 200) eng;
  let after = (Gc.quick_stat ()).Gc.major_words in
  (!delivered, (after -. before) /. float_of_int (max 1 !delivered))

(* The pins were recorded after [Ip.input] began checking a header's
   total length against the delivered PDU; before, a stale header that
   passed its own checksum let one datagram on host a and two on host b
   through that matched nothing the peer sent, and the pins encoded
   them. A checksum buffer shared between the hosts changes the
   delivered bytes or the counts at 1 ms; the context's own buffer
   summed after the CPU is given up, where another process of the same
   host can refill it, changes them at 1.5 ms. Every delivered datagram
   must be a byte-exact copy of one the peer sent. *)
let check_two_way_pins pins results =
  Array.iteri
    (fun i r ->
      let d, n', e, rc, st = pins.(i) in
      let host = if i = 0 then "a" else "b" in
      Alcotest.(check int) (host ^ ": delivered datagrams are byte-exact")
        r.delivered r.exact;
      Alcotest.(check string) (host ^ ": delivered bytes digest") d r.digest;
      Alcotest.(check int) (host ^ ": datagrams delivered") n' r.delivered;
      Alcotest.(check int) (host ^ ": checksum_errors") e r.errors;
      Alcotest.(check int) (host ^ ": stale_recoveries") rc r.recoveries;
      Alcotest.(check int) (host ^ ": stale_reads") st r.stale)
    results

let test_two_way_lazy_pinned () =
  check_two_way_pins
    [|
      ("c6d1e7667704a4fd91241f3e2aa9eaa2", 6, 0, 1, 2);
      ("92a35403ac2edc3c08a2a9998a8efeec", 5, 0, 2, 4);
    |]
    (two_way_lazy_run ())

let test_two_way_lazy_pinned_1500us () =
  check_two_way_pins
    [|
      ("e8b4dc424dc315d0d2d91dc2a982e0ea", 9, 0, 3, 6);
      ("1cdaeed75c4ea2842fee62df11efc0f6", 11, 0, 3, 7);
    |]
    (two_way_lazy_run ~gap:(Time.us 1500) ())

(* The two-way run at spacings from 400 us to 3 ms: lazy invalidation
   may cost datagrams, never deliver a wrong one. The pinned runs above
   check the 1 ms and 1.5 ms spacings. *)
let test_two_way_lazy_sweep () =
  List.iter
    (fun gap_us ->
      Array.iteri
        (fun i r ->
          Alcotest.(check int)
            (Printf.sprintf "gap %d us, host %d: every delivered datagram is exact"
               gap_us i)
            r.delivered r.exact)
        (two_way_lazy_run ~gap:(Time.us gap_us) ()))
    [ 400; 500; 700; 2000; 3000 ]

(* Measured at 13,758 words per datagram, of which the sink's own
   read is 2,048; before the per-byte path stopped copying, 37,136. *)
let test_major_words_per_datagram () =
  let delivered, words = major_words_per_datagram () in
  Alcotest.(check int) "all delivered byte-exact" 40 delivered;
  if words > 13_758. *. 1.25 then
    Alcotest.failf "%.0f major-heap words per 16 KB datagram (bound %.0f)"
      words (13_758. *. 1.25)

let suite =
  [
    Alcotest.test_case "udp end-to-end integrity" `Quick
      test_udp_end_to_end_integrity;
    Alcotest.test_case "raw ATM path" `Quick test_raw_atm_path;
    Alcotest.test_case "interrupt coalescing end-to-end" `Quick
      test_interrupt_coalescing_end_to_end;
    Alcotest.test_case "transmit-queue backpressure" `Quick
      test_tx_queue_backpressure;
    Alcotest.test_case "transmit completion reclaims" `Quick
      test_tx_completion_reclaims;
    Alcotest.test_case "overload does not wedge the host" `Quick
      test_overload_recovers;
    Alcotest.test_case "spin-lock configuration" `Quick
      test_spinlock_configuration_works;
    Alcotest.test_case "corrupted cells never delivered" `Quick
      test_link_corruption_dropped_not_delivered;
    Alcotest.test_case "sub-page buffers stock the pool" `Quick
      test_small_buffers_noncontiguous_pool;
    Alcotest.test_case "long descriptor chains reassemble" `Quick
      test_long_descriptor_chains;
    QCheck_alcotest.to_alcotest trailer_check_matches_copying;
    QCheck_alcotest.to_alcotest e2e_random_integrity;
    Alcotest.test_case "snapshot" `Quick test_snapshot;
    Alcotest.test_case "full-cache-swap policy" `Quick
      test_full_cache_swap_policy;
    Alcotest.test_case "bulk VC setup is O(1) amortized" `Quick
      test_bulk_vc_setup;
    Alcotest.test_case "fresh hosts write no memory" `Quick
      test_fresh_hosts_not_resident;
    Alcotest.test_case "a UDP exchange writes only its buffers" `Quick
      test_udp_exchange_residency;
    Alcotest.test_case "two-way UDP checksums under lazy invalidation" `Quick
      test_two_way_lazy_pinned;
    Alcotest.test_case "a fresh host's live heap" `Quick
      test_fresh_host_live_heap;
    Alcotest.test_case "major-heap words per 16 KB datagram" `Quick
      test_major_words_per_datagram;
    Alcotest.test_case "dropped pairs are freed" `Quick
      test_dropped_pairs_freed;
    Alcotest.test_case "two-way UDP checksums under lazy invalidation, 1.5 ms"
      `Quick test_two_way_lazy_pinned_1500us;
    Alcotest.test_case "lazy invalidation never delivers a wrong datagram" `Quick
      test_two_way_lazy_sweep;
  ]
