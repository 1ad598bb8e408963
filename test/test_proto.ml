(* Tests for IP fragmentation/reassembly and UDP. *)

open Osiris_sim
module Ctx = Osiris_proto.Ctx
module Ip = Osiris_proto.Ip
module Udp = Osiris_proto.Udp
module Msg = Osiris_xkernel.Msg
module Vspace = Osiris_mem.Vspace
module Phys_mem = Osiris_mem.Phys_mem
module Cache = Osiris_cache.Data_cache
module Tc = Osiris_bus.Turbochannel
module Cpu = Osiris_os.Cpu
module Checksum = Osiris_util.Checksum

let page_size = 4096

type world = {
  eng : Engine.t;
  vs : Vspace.t;
  ctx : Ctx.t;
}

let mk_world () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(16 lsl 20) ~page_size () in
  let vs = Vspace.create mem in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let bus = Tc.create eng Tc.Shared_bus in
  let cache =
    Cache.create eng ~mem ~bus
      {
        Cache.size = 64 * 1024;
        line_size = 16;
        coherence = Cache.Software;
        cpu_hz = 25_000_000;
        fill_overhead_cycles = 13;
      }
  in
  {
    eng;
    vs;
    ctx =
      Ctx.create ~cpu ~cache
        Osiris_core.Machine.ds5000_200.Osiris_core.Machine.proto_costs;
  }

let run_in w f =
  let r = ref None in
  Process.spawn w.eng ~name:"t" (fun () -> r := Some (f ()));
  Engine.run w.eng;
  Option.get !r

(* An IP pair whose output is looped straight into input, optionally
   permuting or dropping fragments first. *)
let ip_roundtrip ?(mangle = fun l -> l) ?(cfg = Ip.default_config) w payload =
  let delivered = ref None in
  let fragments = ref [] in
  let sender =
    Ip.create w.ctx cfg ~src:1l ~page_size
      ~send:(fun frag -> fragments := frag :: !fragments)
      ~deliver:(fun ~proto:_ ~src:_ msg -> Msg.dispose msg)
  in
  let receiver =
    Ip.create w.ctx cfg ~src:2l ~page_size
      ~send:(fun _ -> ())
      ~deliver:(fun ~proto ~src msg ->
        delivered := Some (proto, src, Msg.read_all msg);
        Msg.dispose msg)
  in
  let msg = Msg.alloc w.vs ~len:(Bytes.length payload) () in
  Msg.blit_into msg ~off:0 ~src:payload;
  Ip.output sender ~dst:2l ~proto:99 msg;
  List.iter (Ip.input receiver) (mangle (List.rev !fragments));
  (!delivered, Ip.stats sender, Ip.stats receiver)

let test_ip_single_fragment () =
  let w = mk_world () in
  let payload = Bytes.init 1000 (fun i -> Char.chr (i land 0xff)) in
  run_in w (fun () ->
      match ip_roundtrip w payload with
      | Some (proto, src, data), s_tx, _ ->
          Alcotest.(check int) "proto" 99 proto;
          Alcotest.(check int32) "src" 1l src;
          Alcotest.(check bytes) "payload" payload data;
          Alcotest.(check int) "one fragment" 1 s_tx.Ip.fragments_sent
      | None, _, _ -> Alcotest.fail "not delivered")

let ip_identity =
  QCheck.Test.make ~name:"ip: fragment/reassemble identity" ~count:40
    QCheck.(pair (int_range 1 100_000) (int_range 2 17))
    (fun (len, mtu_kb) ->
      let w = mk_world () in
      let payload = Bytes.init len (fun i -> Char.chr ((i * 11) land 0xff)) in
      let cfg = { Ip.mtu = mtu_kb * 1024; aligned_mtu = false } in
      run_in w (fun () ->
          match ip_roundtrip ~cfg w payload with
          | Some (_, _, data), _, _ -> Bytes.equal data payload
          | None, _, _ -> false))

let ip_identity_any_order =
  QCheck.Test.make ~name:"ip: reassembly independent of fragment order"
    ~count:40
    QCheck.(pair (int_range 10_000 80_000) (int_range 0 1000))
    (fun (len, seed) ->
      let w = mk_world () in
      let payload = Bytes.init len (fun i -> Char.chr ((i * 13) land 0xff)) in
      let cfg = { Ip.mtu = 8 * 1024; aligned_mtu = false } in
      let rng = Osiris_util.Rng.create ~seed in
      let mangle l =
        let arr = Array.of_list l in
        Osiris_util.Rng.shuffle rng arr;
        Array.to_list arr
      in
      run_in w (fun () ->
          match ip_roundtrip ~cfg ~mangle w payload with
          | Some (_, _, data), _, _ -> Bytes.equal data payload
          | None, _, _ -> false))

let test_ip_header_corruption_dropped () =
  let w = mk_world () in
  let payload = Bytes.make 500 'p' in
  run_in w (fun () ->
      let mangle = function
        | [ frag ] ->
            (* flip a header byte (the version/IHL field) *)
            let b = Msg.pop frag ~len:1 in
            Msg.push frag ~len:1 (fun out ->
                Bytes.set out 0
                  (Char.chr (Char.code (Bytes.get b 0) lxor 0xff)));
            [ frag ]
        | l -> l
      in
      match ip_roundtrip ~mangle w payload with
      | None, _, s_rx ->
          Alcotest.(check int) "counted" 1 s_rx.Ip.header_checksum_errors
      | Some _, _, _ -> Alcotest.fail "corrupt header accepted")

let test_ip_lost_fragment_no_delivery_no_leak () =
  let w = mk_world () in
  let payload = Bytes.make 20000 'q' in
  let cfg = { Ip.mtu = 8 * 1024; aligned_mtu = false } in
  run_in w (fun () ->
      let mangle = function _ :: rest -> rest | [] -> [] in
      (match ip_roundtrip ~cfg ~mangle w payload with
      | None, _, s_rx ->
          Alcotest.(check int) "no datagram" 0 s_rx.Ip.datagrams_delivered
      | Some _, _, _ -> Alcotest.fail "incomplete datagram delivered"))

let test_ip_eviction_bounds_state () =
  let w = mk_world () in
  let cfg = { Ip.mtu = 8 * 1024; aligned_mtu = false } in
  run_in w (fun () ->
      let receiver =
        Ip.create w.ctx cfg ~src:2l ~page_size
          ~send:(fun _ -> ())
          ~deliver:(fun ~proto:_ ~src:_ msg -> Msg.dispose msg)
      in
      (* 40 first-fragments that never complete. *)
      for id = 1 to 40 do
        let imgs =
          Ip.fragment_images ~id cfg ~page_size ~src:1l ~dst:2l ~proto:99
            (Bytes.make 20000 'z')
        in
        match imgs with
        | first :: _ ->
            let m = Msg.alloc w.vs ~len:(Bytes.length first) () in
            Msg.blit_into m ~off:0 ~src:first;
            Ip.input receiver m
        | [] -> ()
      done;
      Alcotest.(check bool) "partial state bounded" true
        (Ip.partial_reassemblies receiver <= 8);
      Alcotest.(check bool) "evictions counted" true
        ((Ip.stats receiver).Ip.reassembly_drops > 0))

let test_fragment_data_size_policy () =
  let aligned = { Ip.mtu = 4096 + 20; aligned_mtu = true } in
  Alcotest.(check int) "aligned: exactly one page" 4096
    (Ip.fragment_data_size aligned ~page_size);
  let naive = { Ip.mtu = 4096; aligned_mtu = false } in
  Alcotest.(check int) "naive: 4076 rounded to 8" 4072
    (Ip.fragment_data_size naive ~page_size)

(* UDP over a looped IP. *)
let udp_pair ?(checksum = false) w =
  let inbox = ref [] in
  let rcv_ip = ref None in
  let sender_ip =
    Ip.create w.ctx Ip.default_config ~src:1l ~page_size
      ~send:(fun frag ->
        match !rcv_ip with Some ip -> Ip.input ip frag | None -> ())
      ~deliver:(fun ~proto:_ ~src:_ m -> Msg.dispose m)
  in
  let udp_rx = ref None in
  let receiver_ip =
    Ip.create w.ctx Ip.default_config ~src:2l ~page_size
      ~send:(fun _ -> ())
      ~deliver:(fun ~proto ~src msg ->
        match !udp_rx with
        | Some udp when proto = Udp.protocol_number -> Udp.input udp ~src msg
        | _ -> Msg.dispose msg)
  in
  rcv_ip := Some receiver_ip;
  let udp_tx = Udp.create w.ctx ~checksum ~ip:sender_ip in
  let udp = Udp.create w.ctx ~checksum ~ip:receiver_ip in
  udp_rx := Some udp;
  Udp.bind udp ~port:7 (fun ~src:_ ~src_port msg ->
      inbox := (src_port, Msg.read_all msg) :: !inbox;
      Msg.dispose msg);
  (udp_tx, udp, inbox)

let test_udp_roundtrip () =
  let w = mk_world () in
  run_in w (fun () ->
      let udp_tx, _, inbox = udp_pair w in
      let payload = Bytes.init 5000 (fun i -> Char.chr ((i * 3) land 0xff)) in
      let m = Msg.alloc w.vs ~len:5000 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Udp.output udp_tx ~dst:2l ~src_port:9 ~dst_port:7 m;
      match !inbox with
      | [ (9, data) ] -> Alcotest.(check bytes) "payload" payload data
      | _ -> Alcotest.fail "expected exactly one delivery")

let test_udp_checksum_catches_corruption () =
  let w = mk_world () in
  run_in w (fun () ->
      let delivered = ref 0 in
      let udp_rx = ref None in
      let ip =
        Ip.create w.ctx Ip.default_config ~src:2l ~page_size
          ~send:(fun _ -> ())
          ~deliver:(fun ~proto:_ ~src msg ->
            match !udp_rx with
            | Some u -> Udp.input u ~src msg
            | None -> Msg.dispose msg)
      in
      let udp = Udp.create w.ctx ~checksum:true ~ip in
      udp_rx := Some udp;
      Udp.bind udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
          incr delivered;
          Msg.dispose msg);
      (* Build a datagram image, corrupt the payload, feed it through IP. *)
      let img =
        Udp.datagram_image ~src_port:9 ~dst_port:7 ~checksum:true
          (Bytes.make 500 'v')
      in
      Bytes.set img 100 'X';
      let frag =
        List.hd
          (Ip.fragment_images Ip.default_config ~page_size ~src:1l ~dst:2l
             ~proto:Udp.protocol_number img)
      in
      let m = Msg.alloc w.vs ~len:(Bytes.length frag) () in
      Msg.blit_into m ~off:0 ~src:frag;
      Ip.input ip m;
      Alcotest.(check int) "dropped" 0 !delivered;
      Alcotest.(check int) "counted" 1 (Udp.stats udp).Udp.checksum_errors)

let test_udp_large_datagram () =
  let w = mk_world () in
  run_in w (fun () ->
      let udp_tx, _, inbox = udp_pair w in
      (* > 64 KB: the length field overflows; footnote-5 extension. *)
      let len = 100_000 in
      let payload = Bytes.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
      let m = Msg.alloc w.vs ~len () in
      Msg.blit_into m ~off:0 ~src:payload;
      Udp.output udp_tx ~dst:2l ~src_port:9 ~dst_port:7 m;
      match !inbox with
      | [ (_, data) ] -> Alcotest.(check bytes) "100KB intact" payload data
      | _ -> Alcotest.fail "large datagram lost")

let test_udp_unbound_port () =
  let w = mk_world () in
  run_in w (fun () ->
      let udp_tx, udp, _ = udp_pair w in
      let m = Msg.alloc w.vs ~len:100 () in
      Udp.output udp_tx ~dst:2l ~src_port:9 ~dst_port:99 m;
      Alcotest.(check int) "no-port drop" 1 (Udp.stats udp).Udp.no_port_drops)

let test_udp_image_matches_stack () =
  let w = mk_world () in
  run_in w (fun () ->
      (* The pure datagram_image helper must be bit-identical to what the
         stack emits for the same payload. *)
      let payload = Bytes.init 777 (fun i -> Char.chr ((i * 9) land 0xff)) in
      let img =
        Udp.datagram_image ~src_port:9 ~dst_port:7 ~checksum:true payload
      in
      let captured = ref None in
      let ip =
        Ip.create w.ctx
          { Ip.mtu = 60_000; aligned_mtu = false }
          ~src:1l ~page_size
          ~send:(fun frag ->
            let all = Msg.read_all frag in
            captured := Some (Bytes.sub all Ip.header_size
                                (Bytes.length all - Ip.header_size)))
          ~deliver:(fun ~proto:_ ~src:_ m -> Msg.dispose m)
      in
      let udp = Udp.create w.ctx ~checksum:true ~ip in
      let m = Msg.alloc w.vs ~len:777 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Udp.output udp ~dst:2l ~src_port:9 ~dst_port:7 m;
      match !captured with
      | Some wire -> Alcotest.(check bytes) "identical" img wire
      | None -> Alcotest.fail "nothing sent")

let suite =
  [
    Alcotest.test_case "ip: single fragment roundtrip" `Quick
      test_ip_single_fragment;
    QCheck_alcotest.to_alcotest ip_identity;
    QCheck_alcotest.to_alcotest ip_identity_any_order;
    Alcotest.test_case "ip: corrupt header dropped" `Quick
      test_ip_header_corruption_dropped;
    Alcotest.test_case "ip: lost fragment => no delivery" `Quick
      test_ip_lost_fragment_no_delivery_no_leak;
    Alcotest.test_case "ip: reassembly state bounded" `Quick
      test_ip_eviction_bounds_state;
    Alcotest.test_case "ip: MTU alignment policy" `Quick
      test_fragment_data_size_policy;
    Alcotest.test_case "udp: roundtrip over ip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp: checksum catches corruption" `Quick
      test_udp_checksum_catches_corruption;
    Alcotest.test_case "udp: >64KB datagrams" `Quick test_udp_large_datagram;
    Alcotest.test_case "udp: unbound port" `Quick test_udp_unbound_port;
    Alcotest.test_case "udp: image = stack output" `Quick
      test_udp_image_matches_stack;
  ]
