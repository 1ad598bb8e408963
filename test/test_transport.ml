(* Reliable windowed transport: RTO estimator, sender/receiver state
   machines driven directly, and end-to-end transfers of a single-path
   spray connection over the host stack and switch fabric — lossless,
   lossy, and congestion-marked. *)

module Engine = Osiris_sim.Engine
module Time = Osiris_sim.Time
module Atm_link = Osiris_link.Atm_link
module Switch = Osiris_switch.Switch
module Network = Osiris_core.Network
module Rto = Osiris_transport.Rto
module Sender = Osiris_transport.Sender
module Receiver = Osiris_transport.Receiver
module Spray = Osiris_lb.Spray

let pattern len = Bytes.init len (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let assert_clean what = function
  | [] -> ()
  | errs -> Alcotest.failf "%s invariants: %s" what (String.concat "; " errs)

(* --- Rto ----------------------------------------------------------- *)

let test_rto_estimator () =
  let r = Rto.create ~init:(Time.ms 1) ~min:(Time.us 200) ~max:(Time.ms 100) in
  Alcotest.(check int) "initial rto" (Time.ms 1) (Rto.current r);
  Rto.sample r (Time.us 400);
  (* first sample: srtt = r, rttvar = r/2, rto = srtt + 4*rttvar = 3r *)
  Alcotest.(check (option int)) "srtt" (Some (Time.us 400)) (Rto.srtt r);
  Alcotest.(check int) "rto after first sample" (Time.us 1200) (Rto.current r);
  (* steady identical samples shrink rttvar toward 0; the floor holds *)
  for _ = 1 to 200 do
    Rto.sample r (Time.us 400)
  done;
  Alcotest.(check (option int)) "srtt converged" (Some (Time.us 400))
    (Rto.srtt r);
  Alcotest.(check bool) "rto at floor" true (Rto.current r <= Time.us 410)

let test_rto_backoff_karn () =
  let r = Rto.create ~init:(Time.ms 1) ~min:(Time.us 200) ~max:(Time.ms 100) in
  Rto.sample r (Time.us 500);
  let base = Rto.current r in
  Rto.backoff r;
  Alcotest.(check int) "doubled" (2 * base) (Rto.current r);
  Rto.backoff r;
  Alcotest.(check int) "doubled twice" (4 * base) (Rto.current r);
  for _ = 1 to 40 do
    Rto.backoff r
  done;
  Alcotest.(check int) "capped at max" (Time.ms 100) (Rto.current r);
  (* Karn: a fresh unambiguous sample resets the backoff *)
  Rto.sample r (Time.us 500);
  Alcotest.(check bool) "backoff reset by sample" true
    (Rto.current r < Time.ms 3)

(* --- Sender core (no hosts): drive acks by hand -------------------- *)

type sent = { seq : int; rtx : bool }

let test_sender_window_and_completion () =
  let eng = Engine.create () in
  let log = ref [] in
  let config = { Sender.default_config with Sender.init_cwnd = 2 } in
  let s =
    Sender.create eng ~config
      ~tx:(fun ~seq ~retransmit _ -> log := { seq; rtx = retransmit } :: !log)
      ()
  in
  Sender.offer s (pattern (5 * 1024));
  (* cwnd = 2: only segments 0 and 1 go out *)
  Alcotest.(check int) "initial burst respects cwnd" 2 (List.length !log);
  assert_clean "sender" (Sender.invariants s);
  Sender.on_ack s ~ack:1 ~sack:0 ~ece:false;
  Sender.on_ack s ~ack:2 ~sack:0 ~ece:false;
  (* slow start: each new ack grows cwnd, more segments flow *)
  Alcotest.(check bool) "slow start opened the window" true
    (List.length !log >= 5);
  Sender.on_ack s ~ack:5 ~sack:0 ~ece:false;
  Sender.close s;
  Alcotest.(check bool) "finished once all acked" true
    (Sender.state s = Sender.Finished);
  assert_clean "sender" (Sender.invariants s);
  let st = Sender.stats s in
  Alcotest.(check int) "no retransmits" 0 st.Sender.retransmits;
  Alcotest.(check int) "all five unique" 5 st.Sender.unique_sent

let test_sender_fast_retransmit () =
  let eng = Engine.create () in
  let log = ref [] in
  let config =
    { Sender.default_config with Sender.init_cwnd = 8; dup_ack_threshold = 3 }
  in
  let s =
    Sender.create eng ~config
      ~tx:(fun ~seq ~retransmit _ -> log := { seq; rtx = retransmit } :: !log)
      ()
  in
  Sender.offer s (pattern (8 * 1024));
  (* segment 0 lost; 1..3 arrive: three sacked acks above the hole *)
  Sender.on_ack s ~ack:0 ~sack:0b001 ~ece:false;
  Sender.on_ack s ~ack:0 ~sack:0b011 ~ece:false;
  let cwnd_before = Sender.cwnd s in
  Sender.on_ack s ~ack:0 ~sack:0b111 ~ece:false;
  let rtx = List.filter (fun e -> e.rtx) !log in
  Alcotest.(check (list int)) "segment 0 fast-retransmitted" [ 0 ]
    (List.map (fun e -> e.seq) rtx);
  Alcotest.(check bool) "multiplicative decrease" true
    (Sender.cwnd s < cwnd_before);
  Alcotest.(check int) "one fast retransmit" 1
    (Sender.stats s).Sender.fast_retransmits;
  (* the retransmission fills the hole: cumulative ack jumps *)
  Sender.on_ack s ~ack:4 ~sack:0 ~ece:false;
  Alcotest.(check int) "window slid" 4 (Sender.snd_una s);
  assert_clean "sender" (Sender.invariants s)

let test_sender_rto_and_failure () =
  let eng = Engine.create () in
  let log = ref [] in
  let config =
    { Sender.default_config with Sender.init_cwnd = 4; max_retries = 3 }
  in
  let s =
    Sender.create eng ~config
      ~tx:(fun ~seq ~retransmit _ -> log := { seq; rtx = retransmit } :: !log)
      ()
  in
  Sender.offer s (pattern 2048);
  (* no acks ever arrive: timeouts back off, then the sender fails *)
  Engine.run ~until:(Time.s 2) eng;
  (match Sender.state s with
  | Sender.Failed _ -> ()
  | _ -> Alcotest.fail "expected Failed after max_retries timeouts");
  let st = Sender.stats s in
  Alcotest.(check int) "exactly max_retries+1 timeouts" 4 st.Sender.timeouts;
  (* One tail probe fires before the first RTO (then [probe_pending]
     suppresses further probing until an ack, which never comes); after
     that, exactly one retransmission per timeout. *)
  Alcotest.(check int) "one tail probe" 1 st.Sender.tail_probes;
  Alcotest.(check int) "one retransmission per timeout plus the probe" 4
    st.Sender.retransmits;
  assert_clean "sender (failed)" (Sender.invariants s)

let test_sender_ece_cuts_once_per_rtt () =
  let eng = Engine.create () in
  let config = { Sender.default_config with Sender.init_cwnd = 16 } in
  let s =
    Sender.create eng ~config ~tx:(fun ~seq:_ ~retransmit:_ _ -> ()) ()
  in
  Sender.offer s (pattern (20 * 1024));
  let c0 = Sender.cwnd s in
  Sender.on_ack s ~ack:1 ~sack:0 ~ece:true;
  let c1 = Sender.cwnd s in
  Alcotest.(check bool) "ECE cut cwnd" true (c1 < c0);
  (* same instant: the hold-off suppresses a second cut; growth resumes *)
  Sender.on_ack s ~ack:2 ~sack:0 ~ece:true;
  Alcotest.(check bool) "second ECE within hold is ignored" true
    (Sender.cwnd s >= c1);
  Alcotest.(check int) "both echoes counted" 2 (Sender.stats s).Sender.ece_acks;
  assert_clean "sender" (Sender.invariants s)

(* --- Receiver core -------------------------------------------------- *)

let test_receiver_reorder_and_sack () =
  let delivered = ref [] in
  let acks = ref [] in
  let r =
    Receiver.create ~window:8
      ~deliver:(fun ~seq p -> delivered := (seq, Bytes.length p) :: !delivered)
      ~tx_ack:(fun ~ack ~sack ~ece -> acks := (ack, sack, ece) :: !acks)
      ()
  in
  Receiver.on_data r ~seq:1 ~marked:false (pattern 10);
  Alcotest.(check (list (pair int int))) "nothing delivered yet" []
    !delivered;
  (match !acks with
  | [ (0, sack, false) ] ->
      Alcotest.(check int) "sack reports seq 1" 0b1 sack
  | _ -> Alcotest.fail "expected one ack with a sack bit");
  Receiver.on_data r ~seq:0 ~marked:false (pattern 10);
  Alcotest.(check (list (pair int int))) "in-order flush" [ (1, 10); (0, 10) ]
    !delivered;
  (match !acks with
  | (2, 0, false) :: _ -> ()
  | _ -> Alcotest.fail "cumulative ack should reach 2");
  (* duplicate and out-of-window arrivals are counted, not delivered *)
  Receiver.on_data r ~seq:0 ~marked:false (pattern 10);
  Receiver.on_data r ~seq:100 ~marked:false (pattern 10);
  let st = Receiver.stats r in
  Alcotest.(check int) "duplicate counted" 1 st.Receiver.duplicates;
  Alcotest.(check int) "out-of-window counted" 1 st.Receiver.out_of_window;
  Alcotest.(check int) "still two delivered" 2 st.Receiver.delivered_segs;
  (* the congestion mark is echoed on exactly the marked PDU's ack *)
  Receiver.on_data r ~seq:2 ~marked:true (pattern 10);
  (match !acks with
  | (3, 0, true) :: _ -> ()
  | _ -> Alcotest.fail "marked PDU's ack should carry ECE");
  assert_clean "receiver" (Receiver.invariants r)

(* --- End to end over the fabric ------------------------------------ *)

let total_bytes = 64 * 1024

let run_transfer ?(until = Time.ms 200) ?(switch = Switch.default_config)
    ?(config = Sender.default_config) ~twist () =
  let eng, topo = Network.star ~n:2 ~switch () in
  let got = Buffer.create total_bytes in
  let conn =
    Spray.connect topo ~mode:Spray.Single ~src:0 ~dst:1
      ~config
      ~deliver:(fun b -> Buffer.add_bytes got b)
      ()
  in
  twist eng topo;
  Spray.send conn (pattern total_bytes);
  Spray.close conn;
  Engine.run ~until eng;
  (eng, topo, conn, got)

let check_byte_exact conn got =
  (match Spray.state conn with
  | Sender.Finished -> ()
  | Sender.Active -> Alcotest.fail "transfer did not complete"
  | Sender.Failed r -> Alcotest.failf "transfer failed: %s" r);
  Alcotest.(check int) "every byte delivered exactly once" total_bytes
    (Buffer.length got);
  Alcotest.(check bool) "delivered bytes match" true
    (Bytes.equal (Buffer.to_bytes got) (pattern total_bytes));
  assert_clean "transport" (Spray.invariants conn);
  Alcotest.(check int) "no garbled PDUs" 0 (Spray.garbled conn)

(* The default 32-cell switch queue drops under even modest bursts (one
   1 KiB segment is ~22 cells), so a provisioned-lossless fabric needs a
   queue deeper than window * cells-per-segment. *)
let deep_queue = { Switch.default_config with Switch.queue_cells = 1024 }

let test_end_to_end_lossless () =
  let _, _, conn, got =
    run_transfer ~switch:deep_queue ~twist:(fun _ _ -> ()) ()
  in
  check_byte_exact conn got;
  let st = Sender.stats (Spray.sender conn) in
  Alcotest.(check int) "lossless: no retransmits" 0 st.Sender.retransmits;
  Alcotest.(check bool) "rtt was sampled" true (st.Sender.rtt_samples > 0)

let test_end_to_end_lossy () =
  (* 1% cell loss on the sender's uplink: a ~22-cell segment survives
     with p ~ 0.8, so every transfer exercises reassembly failure and
     transport recovery without exhausting max_retries *)
  let _, _, conn, got =
    run_transfer ~until:(Time.s 2) ~switch:deep_queue
      ~twist:(fun _ topo ->
        let ep = topo.Network.endpoints.(0) in
        Atm_link.set_drop_prob ep.Network.to_fabric 0.01)
      ()
  in
  check_byte_exact conn got;
  let st = Sender.stats (Spray.sender conn) in
  Alcotest.(check bool) "losses forced retransmissions" true
    (st.Sender.retransmits > 0)

let test_end_to_end_marking () =
  (* A queue shallow enough to mark but deep enough not to drop: the
     receiver sees marked PDUs, the sender sees ECE echoes and cuts *)
  let switch =
    { Switch.default_config with Switch.queue_cells = 64; mark_threshold = 4 }
  in
  let _, topo, conn, got = run_transfer ~switch ~twist:(fun _ _ -> ()) () in
  check_byte_exact conn got;
  let sw = topo.Network.switches.(0) in
  let sst = Switch.stats sw in
  Alcotest.(check bool) "switch marked cells" true (sst.Switch.marked > 0);
  let rst = Receiver.stats (Spray.receiver conn) in
  Alcotest.(check bool) "marks reached the receiver" true
    (rst.Receiver.marked_pdus > 0);
  let st = Sender.stats (Spray.sender conn) in
  Alcotest.(check bool) "ECE echoed to the sender" true
    (st.Sender.ece_acks > 0);
  Alcotest.(check bool) "sender reacted" true (st.Sender.cwnd_cuts > 0);
  (* mark conservation holds at the end too *)
  let parts = Switch.mark_conservation sw in
  let sum = List.fold_left (fun a (_, v) -> a + v) 0 parts in
  Alcotest.(check int) "mark conservation" sst.Switch.marked sum

let test_end_to_end_dead_fabric_fails () =
  (* Output port to the receiver goes down and stays down: the sender
     must give up with Failed, not hang or livelock *)
  let eng, topo = Network.star ~n:2 () in
  let conn =
    Spray.connect topo ~mode:Spray.Single ~src:0 ~dst:1
      ~config:{ Sender.default_config with Sender.max_retries = 5 }
      ~deliver:(fun _ -> ())
      ()
  in
  Switch.set_port_state topo.Network.switches.(0)
    ~port:topo.Network.endpoints.(1).Network.port false;
  Spray.send conn (pattern 8192);
  Spray.close conn;
  Engine.run ~until:(Time.s 5) eng;
  (match Spray.state conn with
  | Sender.Failed _ -> ()
  | _ -> Alcotest.fail "expected Failed against a dead fabric");
  assert_clean "transport (failed)" (Spray.invariants conn)

(* The congestion soak contract (EXPERIMENTS.md "Congestion sweep"):
   every seeded fault plan — random host-link faults plus a port-flap
   storm on the receiver's switch port and a trunk-loss burst — ends
   with every stream byte-exact, retransmission bounded below the
   offered bytes, and zero invariant violations. A failing seed
   reproduces exactly from its number. *)
let test_congestion_soak () =
  let results = Osiris_experiments.Congestion.soak () in
  Alcotest.(check int) "all seeds ran" 8 (List.length results);
  Alcotest.(check (list string)) "soak contract holds" []
    (Osiris_experiments.Congestion.soak_violations results)

let suite =
  [
    Alcotest.test_case "rto estimator" `Quick test_rto_estimator;
    Alcotest.test_case "rto backoff + karn" `Quick test_rto_backoff_karn;
    Alcotest.test_case "sender window/completion" `Quick
      test_sender_window_and_completion;
    Alcotest.test_case "sender fast retransmit" `Quick
      test_sender_fast_retransmit;
    Alcotest.test_case "sender rto + failure" `Quick
      test_sender_rto_and_failure;
    Alcotest.test_case "sender ECE once per rtt" `Quick
      test_sender_ece_cuts_once_per_rtt;
    Alcotest.test_case "receiver reorder/sack/echo" `Quick
      test_receiver_reorder_and_sack;
    Alcotest.test_case "end-to-end lossless" `Quick test_end_to_end_lossless;
    Alcotest.test_case "end-to-end lossy" `Quick test_end_to_end_lossy;
    Alcotest.test_case "end-to-end marking" `Quick test_end_to_end_marking;
    Alcotest.test_case "dead fabric fails cleanly" `Quick
      test_end_to_end_dead_fabric_fails;
    Alcotest.test_case "multi-seed congestion fault soak" `Slow
      test_congestion_soak;
  ]
