(* Tests for the message tool and the early-demultiplexing table. *)

module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Vspace = Osiris_mem.Vspace
module Phys_mem = Osiris_mem.Phys_mem
module Rng = Osiris_util.Rng

let mk_vs ?scramble () =
  Vspace.create (Phys_mem.create ?scramble ~size:(4 lsl 20) ~page_size:4096 ())

let test_alloc_read_all () =
  let vs = mk_vs () in
  let m = Msg.alloc vs ~len:1000 ~fill:(fun i -> Char.chr (i land 0xff)) () in
  Alcotest.(check int) "length" 1000 (Msg.length m);
  Alcotest.(check bytes) "contents"
    (Bytes.init 1000 (fun i -> Char.chr (i land 0xff)))
    (Msg.read_all m)

let test_push_pop_headers () =
  let vs = mk_vs () in
  let m = Msg.alloc vs ~len:100 ~fill:(fun _ -> 'd') () in
  Msg.push m ~len:8 (fun b -> Bytes.fill b 0 8 'U');
  Msg.push m ~len:20 (fun b -> Bytes.fill b 0 20 'I');
  Alcotest.(check int) "length with headers" 128 (Msg.length m);
  (* Headers share one physical buffer (paper fig. 1). *)
  Alcotest.(check int) "segments: header area + data" 2
    (List.length (Msg.segs m));
  Alcotest.(check bytes) "outermost header" (Bytes.make 20 'I')
    (Msg.pop m ~len:20);
  Alcotest.(check bytes) "inner header" (Bytes.make 8 'U') (Msg.pop m ~len:8);
  Alcotest.(check bytes) "payload intact" (Bytes.make 100 'd') (Msg.read_all m)

let test_pop_across_boundary () =
  let vs = mk_vs () in
  let m = Msg.alloc vs ~len:100 ~fill:(fun _ -> 'd') () in
  Msg.push m ~len:10 (fun b -> Bytes.fill b 0 10 'h');
  let head = Msg.pop m ~len:15 in
  Alcotest.(check bytes) "header + 5 data"
    (Bytes.cat (Bytes.make 10 'h') (Bytes.make 5 'd'))
    head;
  Alcotest.(check int) "remaining" 95 (Msg.length m)

let test_sub_views () =
  let vs = mk_vs () in
  let m =
    Msg.alloc vs ~len:200 ~fill:(fun i -> Char.chr ((i * 5) land 0xff)) ()
  in
  let view = Msg.sub m ~off:50 ~len:100 in
  Alcotest.(check bytes) "view contents"
    (Bytes.init 100 (fun i -> Char.chr (((i + 50) * 5) land 0xff)))
    (Msg.read_all view);
  (* Views are zero-copy: writing through the parent shows in the view. *)
  Msg.blit_into m ~off:50 ~src:(Bytes.make 10 '!');
  Alcotest.(check bytes) "shared memory" (Bytes.make 10 '!')
    (Msg.peek view ~off:0 ~len:10)

let msg_header_roundtrip =
  QCheck.Test.make ~name:"msg: arbitrary push/pop roundtrip" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_range 1 64)) (int_range 1 500))
    (fun (headers, body_len) ->
      let vs = mk_vs () in
      let m = Msg.alloc vs ~len:body_len ~fill:(fun _ -> 'b') () in
      let tags =
        List.mapi
          (fun i len ->
            let c = Char.chr (Char.code 'A' + (i mod 26)) in
            Msg.push m ~len (fun b -> Bytes.fill b 0 len c);
            (len, c))
          headers
      in
      List.for_all
        (fun (len, c) -> Bytes.equal (Msg.pop m ~len) (Bytes.make len c))
        (List.rev tags)
      && Msg.length m = body_len)

let msg_sub_matches_read_all =
  QCheck.Test.make ~name:"msg: sub = slice of read_all" ~count:100
    QCheck.(triple (int_range 1 400) small_nat small_nat)
    (fun (len, off, sublen) ->
      let vs = mk_vs ~scramble:(Rng.create ~seed:11) () in
      let m = Msg.alloc vs ~len ~fill:(fun i -> Char.chr (i land 0xff)) () in
      let off = off mod len in
      let sublen = sublen mod (len - off + 1) in
      QCheck.assume (sublen > 0);
      let view = Msg.sub m ~off ~len:sublen in
      Bytes.equal (Msg.read_all view)
        (Bytes.sub (Msg.read_all m) off sublen))

let msg_pbufs_cover_message =
  QCheck.Test.make ~name:"msg: pbufs cover exactly the message" ~count:100
    QCheck.(int_range 1 30000)
    (fun len ->
      let vs = mk_vs ~scramble:(Rng.create ~seed:12) () in
      let m = Msg.alloc vs ~len ~fill:(fun _ -> 'x') () in
      Msg.push m ~len:20 (fun b -> Bytes.fill b 0 20 'h');
      Osiris_mem.Pbuf.total_len (Msg.pbufs m) = Msg.length m)

let test_dispose_frees_and_finalizes () =
  let mem = Phys_mem.create ~size:(1 lsl 20) ~page_size:4096 () in
  let vs = Vspace.create mem in
  let before = Phys_mem.free_frames mem in
  let m = Msg.alloc vs ~len:8192 () in
  Msg.push m ~len:4 (fun _ -> ());
  let finalized = ref 0 in
  Msg.add_finalizer m (fun () -> incr finalized);
  Msg.dispose m;
  Alcotest.(check int) "finalizer ran" 1 !finalized;
  Msg.dispose m;
  Alcotest.(check int) "idempotent" 1 !finalized;
  Alcotest.(check int) "frames returned" before (Phys_mem.free_frames mem)

let test_demux () =
  let d = Demux.create () in
  let got = ref 0 in
  Demux.bind d ~vci:5 ~name:"x" (fun ~vci msg ->
      got := vci + Msg.length msg;
      Msg.dispose msg);
  let vs = mk_vs () in
  Alcotest.(check bool) "delivered" true
    (Demux.deliver d ~vci:5 (Msg.alloc vs ~len:10 ()));
  Alcotest.(check int) "handler saw vci+len" 15 !got;
  Alcotest.(check bool) "unbound ignored" false
    (Demux.deliver d ~vci:6 (Msg.alloc vs ~len:10 ()));
  Alcotest.(check bool) "double bind rejected" true
    (try
       Demux.bind d ~vci:5 ~name:"y" (fun ~vci:_ m -> Msg.dispose m);
       false
     with Invalid_argument _ -> true);
  let v1 = Demux.fresh_vci d in
  Demux.bind d ~vci:v1 ~name:"a" (fun ~vci:_ m -> Msg.dispose m);
  let v2 = Demux.fresh_vci d in
  Alcotest.(check bool) "fresh vcis distinct" true (v1 <> v2)

(* Binding a bound VCI again names both bindings, the one that holds
   the VCI first. *)
let test_demux_double_bind_names_both () =
  let d = Demux.create () in
  Demux.bind d ~vci:7 ~name:"first" (fun ~vci:_ m -> Msg.dispose m);
  Alcotest.check_raises "message names the first binding"
    (Invalid_argument
       "Demux.bind: VCI 7 is bound to \"first\", cannot bind \"second\"")
    (fun () ->
      Demux.bind d ~vci:7 ~name:"second" (fun ~vci:_ m -> Msg.dispose m))

let test_paths () =
  let d = Demux.create () in
  let reg = Osiris_xkernel.Path.create_registry d in
  let got = ref 0 in
  let p =
    Osiris_xkernel.Path.establish reg ~name:"conn-1" ~crossings:1
      ~handler:(fun path msg ->
        got := path.Osiris_xkernel.Path.crossings + Msg.length msg;
        Msg.dispose msg)
  in
  Alcotest.(check int) "one boundary" 1 p.Osiris_xkernel.Path.crossings;
  let vs = mk_vs () in
  Alcotest.(check bool) "delivery through the demux" true
    (Demux.deliver d ~vci:p.Osiris_xkernel.Path.vci (Msg.alloc vs ~len:10 ()));
  Alcotest.(check int) "handler saw crossings + len" 11 !got;
  let q =
    Osiris_xkernel.Path.establish reg ~name:"conn-2" ~crossings:0
      ~handler:(fun _ msg -> Msg.dispose msg)
  in
  Alcotest.(check bool) "fresh vci per path" true
    (p.Osiris_xkernel.Path.vci <> q.Osiris_xkernel.Path.vci);
  Alcotest.(check bool) "fresh path id" true
    (p.Osiris_xkernel.Path.id <> q.Osiris_xkernel.Path.id)

(* [Msg.peek] and [Msg.blit_into] move bytes straight between memory
   and the caller's buffer; the copying forms read every segment page by
   page into its own copy. Messages have one to four data segments that
   start anywhere in a page on scattered frames, some never written, and
   possibly a pushed header; ranges are arbitrary. *)
let msg_copy_free_matches_copying =
  QCheck.Test.make ~name:"msg: peek and blit_into match the copying forms"
    ~count:200
    QCheck.(
      make
        Gen.(
          quad
            (list_size (1 -- 4) (triple (0 -- 4095) (1 -- 6000) bool))
            (0 -- 64) (pair (0 -- 20000) (0 -- 20000)) (0 -- 1000)))
    (fun (segspec, hdr, (a, b), seed) ->
      let vs = mk_vs ~scramble:(Rng.create ~seed) () in
      let segs =
        List.mapi
          (fun i (offset, len, written) ->
            let vaddr = Vspace.alloc_offset vs ~len ~offset in
            if written then
              Copying.write_region vs ~vaddr
                (Bytes.init len (fun k -> Char.chr (((k * 7) + i + seed) land 0xff)));
            { Msg.vaddr; len })
          segspec
      in
      let m = Msg.of_segs vs segs in
      if hdr > 0 then Msg.push m ~len:hdr (fun h -> Bytes.fill h 0 hdr 'H');
      let total = Msg.length m in
      let off = a mod (total + 1) in
      let len = b mod (total - off + 1) in
      let want = Copying.msg_contents m in
      let peek_ok = Bytes.equal (Msg.peek m ~off ~len) (Bytes.sub want off len) in
      let src = Bytes.init len (fun k -> Char.chr (((k * 13) + seed) land 0xff)) in
      Msg.blit_into m ~off ~src;
      Bytes.blit src 0 want off len;
      peek_ok && Bytes.equal (Copying.msg_contents m) want)

let suite =
  [
    Alcotest.test_case "msg: alloc/read_all" `Quick test_alloc_read_all;
    Alcotest.test_case "msg: headers share one buffer" `Quick
      test_push_pop_headers;
    Alcotest.test_case "msg: pop across header boundary" `Quick
      test_pop_across_boundary;
    Alcotest.test_case "msg: sub views" `Quick test_sub_views;
    QCheck_alcotest.to_alcotest msg_header_roundtrip;
    QCheck_alcotest.to_alcotest msg_sub_matches_read_all;
    QCheck_alcotest.to_alcotest msg_pbufs_cover_message;
    QCheck_alcotest.to_alcotest msg_copy_free_matches_copying;
    Alcotest.test_case "msg: dispose" `Quick test_dispose_frees_and_finalizes;
    Alcotest.test_case "demux table" `Quick test_demux;
    Alcotest.test_case "paths: establish/deliver" `Quick test_paths;
    Alcotest.test_case "demux: a second bind names the first" `Quick
      test_demux_double_bind_names_both;
  ]
