(* Smoke and shape tests for the experiment harness itself: cheap runs
   that pin the reproduced results' qualitative shape, so a regression in
   the model shows up in `dune runtest` and not only in the bench. *)

module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
open Osiris_experiments

let test_dma_bounds_exact () =
  let chk label expect dir burst =
    Alcotest.(check (float 0.5)) label expect
      (Osiris_bus.Turbochannel.max_dma_mbps ~dir ~burst)
  in
  chk "367" 366.7 `Read 44;
  chk "463" 463.2 `Write 44;
  chk "503" 502.9 `Read 88;
  chk "587" 586.7 `Write 88

let test_latency_shape () =
  (* Cheap Table-1 shape checks on the DECstation. *)
  let rtt p s = Table1.rtt ~machine:Machine.ds5000_200 ~proto:p ~msg_size:s
      ~rounds:4 () in
  let atm1 = rtt Table1.Raw_atm 1 in
  let atm4k = rtt Table1.Raw_atm 4096 in
  let udp1 = rtt Table1.Udp_ip 1 in
  Alcotest.(check bool)
    (Printf.sprintf "ATM 1B in band (%.0f)" atm1)
    true
    (atm1 > 250.0 && atm1 < 450.0);
  Alcotest.(check bool) "grows with size" true (atm4k > atm1 +. 100.0);
  Alcotest.(check bool) "UDP/IP costs more" true (udp1 > atm1 +. 150.0)

let test_latency_machine_ordering () =
  let rtt m = Table1.rtt ~machine:m ~proto:Table1.Raw_atm ~msg_size:1
      ~rounds:4 () in
  Alcotest.(check bool) "Alpha ~2.3x faster" true
    (rtt Machine.ds5000_200 > 1.8 *. rtt Machine.dec3000_600)

let test_receive_side_shape () =
  let tput machine dma inval =
    Receive_side.throughput ~machine
      ~variant:
        { Receive_side.label = "t"; dma; invalidation = inval;
          checksum = false }
      ~msg_size:(16 * 1024) ~window_ms:12 ()
  in
  let ds_double = tput Machine.ds5000_200 Board.Double_cell Driver.Lazy in
  let ds_single = tput Machine.ds5000_200 Board.Single_cell Driver.Lazy in
  let ds_eager = tput Machine.ds5000_200 Board.Single_cell Driver.Eager in
  Alcotest.(check bool)
    (Printf.sprintf "double (%.0f) > single (%.0f)" ds_double ds_single)
    true (ds_double > ds_single);
  Alcotest.(check bool)
    (Printf.sprintf "single (%.0f) > eager invalidation (%.0f)" ds_single
       ds_eager)
    true
    (ds_single > ds_eager);
  Alcotest.(check bool) "plateaus in band" true
    (ds_double > 300.0 && ds_double < 440.0 && ds_eager > 180.0
     && ds_eager < 300.0)

let test_checksum_collapse () =
  let tput cs =
    Receive_side.throughput ~machine:Machine.ds5000_200
      ~variant:
        { Receive_side.label = "t"; dma = Board.Single_cell;
          invalidation = Driver.Lazy; checksum = cs }
      ~msg_size:(16 * 1024) ~window_ms:12 ()
  in
  let off = tput false and on_ = tput true in
  Alcotest.(check bool)
    (Printf.sprintf "CS collapses throughput (%.0f -> %.0f)" off on_)
    true
    (on_ < 120.0 && on_ > 40.0 && off > 2.5 *. on_)

let test_transmit_shape () =
  let t =
    Transmit_side.throughput ~machine:Machine.dec3000_600 ~checksum:false
      ~msg_size:(64 * 1024) ~window_ms:12 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "transmit plateau ~325 (%.0f)" t)
    true
    (t > 290.0 && t < 370.0)

let test_fragmentation_counts () =
  let naive =
    Ablation_fragmentation.run ~mtu:4096 ~aligned:false ~contiguous:false ()
  in
  let contig =
    Ablation_fragmentation.run ~mtu:(16 * 1024) ~aligned:true ~contiguous:true
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "naive explodes (%d bufs)"
       naive.Ablation_fragmentation.physical_buffers)
    true
    (naive.Ablation_fragmentation.physical_buffers >= 13);
  Alcotest.(check bool) "contiguous collapses" true
    (contig.Ablation_fragmentation.physical_buffers
     <= naive.Ablation_fragmentation.physical_buffers / 2)

let test_interrupt_coalescing_counts () =
  let pdus, irqs = Ablation_interrupts.run ~burst:32 ~spacing_us:0 () in
  Alcotest.(check int) "train delivered" 32 pdus;
  Alcotest.(check bool)
    (Printf.sprintf "coalesced (%d irqs)" irqs)
    true (irqs <= 12);
  let pdus_s, irqs_s = Ablation_interrupts.run ~burst:8 ~spacing_us:2000 () in
  Alcotest.(check int) "spaced delivered" 8 pdus_s;
  Alcotest.(check int) "one each for latency" 8 irqs_s

let test_skew_strategies () =
  let r strategy skew_us =
    Ablation_skew.run ~strategy ~skew_us ~pdus:16 ()
  in
  let perlink = r (Osiris_atm.Sar.Per_link 4) 5 in
  Alcotest.(check int) "per-link survives skew" 16
    perlink.Ablation_skew.delivered;
  let inorder = r Osiris_atm.Sar.In_order 5 in
  Alcotest.(check int) "in-order never delivers under striping" 0
    inorder.Ablation_skew.delivered;
  let noskew = r (Osiris_atm.Sar.Per_link 4) 0 in
  Alcotest.(check bool) "combining collapses under skew" true
    (noskew.Ablation_skew.combined_fraction
     > 10.0 *. Float.max 0.01 perlink.Ablation_skew.combined_fraction)

let test_adc_parity () =
  let k = Ablation_adc.rtt_kernel ~msg_size:1 in
  let u = Ablation_adc.rtt_adc ~msg_size:1 in
  let v = Ablation_adc.rtt_user_via_kernel ~msg_size:1 in
  Alcotest.(check bool)
    (Printf.sprintf "ADC within margins of kernel (%.0f vs %.0f)" u k)
    true
    (abs_float (u -. k) < 0.05 *. k);
  Alcotest.(check bool) "traditional path much slower" true (v > k +. 100.0)

let test_priority_under_overload () =
  let alone = Ablation_priority.run ~overload:false () in
  let loaded = Ablation_priority.run ~overload:true () in
  Alcotest.(check bool)
    (Printf.sprintf "high keeps most throughput (%.0f -> %.0f)"
       alone.Ablation_priority.high_mbps loaded.Ablation_priority.high_mbps)
    true
    (loaded.Ablation_priority.high_mbps
     > 0.25 *. alone.Ablation_priority.high_mbps);
  Alcotest.(check bool) "board dropped the low flow" true
    (loaded.Ablation_priority.board_drops > 0)

let test_lazy_cache_mechanics () =
  let lazy_r = Ablation_lazy_cache.run ~invalidation:Driver.Lazy () in
  let eager_r = Ablation_lazy_cache.run ~invalidation:Driver.Eager () in
  Alcotest.(check bool) "lazy sees stale reads" true
    (lazy_r.Ablation_lazy_cache.stale_reads > 0);
  Alcotest.(check int) "lazy never delivers corrupt data" 0
    lazy_r.Ablation_lazy_cache.checksum_failures;
  Alcotest.(check int) "eager never sees stale data" 0
    eager_r.Ablation_lazy_cache.stale_reads

let test_ethernet_baseline () =
  let e = Ablation_ethernet.rtt_ethernet ~machine:Machine.ds5000_200
      ~msg_size:1 ~rounds:6 () in
  let o = Table1.rtt ~machine:Machine.ds5000_200 ~proto:Table1.Raw_atm
      ~msg_size:1 ~rounds:6 () in
  Alcotest.(check bool)
    (Printf.sprintf "OSIRIS (%.0f) a bit better than Ethernet (%.0f) at 1B"
       o e)
    true
    (o < e && e < 2.0 *. o);
  let e4k = Ablation_ethernet.rtt_ethernet ~machine:Machine.ds5000_200
      ~msg_size:4096 ~rounds:6 () in
  Alcotest.(check bool) "Ethernet collapses at size" true (e4k > 5.0 *. o)

let test_multiplexing_granularity () =
  let fine = Ablation_multiplexing.run ~mux:Osiris_board.Board.Cell_interleave
      ~bulk_pdu:(32 * 1024) () in
  let coarse = Ablation_multiplexing.run ~mux:Osiris_board.Board.Pdu_at_once
      ~bulk_pdu:(32 * 1024) () in
  Alcotest.(check bool)
    (Printf.sprintf "interleave (%.0f us) beats PDU-at-once (%.0f us)"
       fine.Ablation_multiplexing.small_rtt_us
       coarse.Ablation_multiplexing.small_rtt_us)
    true
    (fine.Ablation_multiplexing.small_rtt_us
     < 0.8 *. coarse.Ablation_multiplexing.small_rtt_us)

(* The congestion sweep is the figure the bench publishes; a cheap run
   here pins (a) determinism — two runs from the same seed produce the
   identical outcome record and the identical metrics snapshot (each
   taken from a fresh registry: switch cells in, marks and drops, and
   every link, board and driver counter), which is what makes the bench
   numbers and the soak reproducible — and (b) the audit staying clean
   at a contended queue depth. *)
let test_congestion_deterministic () =
  let go () =
    Osiris_obs.Metrics.reset ();
    let o =
      Congestion.run ~senders:4 ~queue_cells:24 ~marking:true
        ~bytes_per_sender:4096 ~seed:5 ()
    in
    (o, Osiris_obs.Json.to_string (Osiris_obs.Metrics.to_json ()))
  in
  let a, metrics_a = go () in
  let b, metrics_b = go () in
  let f = a.Congestion.flows in
  Alcotest.(check (list string)) "no invariant violations" []
    f.Flows.violations;
  Alcotest.(check bool) "every stream byte-exact" true f.Flows.byte_exact;
  Alcotest.(check int) "all connections finished" 4 f.Flows.finished;
  Alcotest.(check bool) "same seed, identical outcome" true (a = b);
  (match Osiris_obs.Metrics.find "switch.cells_in" with
  | Some (Osiris_obs.Metrics.V_int n) when n > 0 -> ()
  | _ -> Alcotest.fail "the metrics snapshot holds no switch cells");
  Alcotest.(check string) "same seed, identical metrics" metrics_a metrics_b

(* One small demux_scale point end to end: all flows land, nothing
   trips the table checks or the fabric audit, and the probe counters
   show the hashed tables actually being exercised. *)
let test_demux_scale_smoke () =
  let p = Osiris_experiments.Demux_scale.run ~nvcs:128 () in
  (match p.Osiris_experiments.Demux_scale.violations with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs));
  Alcotest.(check int) "delivered" 128
    p.Osiris_experiments.Demux_scale.delivered_pdus;
  let d = p.Osiris_experiments.Demux_scale.demux in
  Alcotest.(check bool) "demux lookups happened" true
    (d.Osiris_classify.Table.lookups > 0);
  Alcotest.(check bool) "probe histogram sane" true
    (d.Osiris_classify.Table.p99_probe >= 1
    && d.Osiris_classify.Table.p99_probe
       <= d.Osiris_classify.Table.max_probe)

(* The measurement harness on synthetic peers: a ping nobody answers, an
   echo a fixed 100 us after each ping, and a counter growing at a known
   rate. *)
let test_measure_unanswered () =
  let eng = Osiris_sim.Engine.create () in
  match Measure.rtt eng ~rounds:3 (fun _pong () -> ()) with
  | _ -> Alcotest.fail "an unanswered ping-pong returned a mean"
  | exception Failure _ -> ()

let test_measure_fixed_echo () =
  let eng = Osiris_sim.Engine.create () in
  let pings = ref 0 in
  let mean =
    Measure.rtt eng ~rounds:5 (fun pong () ->
        incr pings;
        ignore (Osiris_sim.Engine.schedule eng ~delay:(Osiris_sim.Time.us 100) pong))
  in
  Alcotest.(check (float 0.0)) "mean RTT" 100.0 mean;
  Alcotest.(check int) "4 warm-ups + rounds pings" 9 !pings

let test_measure_window_rate () =
  let eng = Osiris_sim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    count := !count + 3;
    ignore (Osiris_sim.Engine.schedule eng ~delay:(Osiris_sim.Time.us 1) tick)
  in
  tick ();
  let c0, c1, ns =
    Measure.window eng ~warmup:(Osiris_sim.Time.us 50)
      ~span:(Osiris_sim.Time.us 200) (fun () -> !count)
  in
  Alcotest.(check int) "window length" (Osiris_sim.Time.us 200) ns;
  Alcotest.(check (float 0.0)) "3 per us" 3.0
    (float_of_int (c1 - c0) /. Osiris_sim.Time.to_float_us ns)

let test_registry_complete () =
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " registered") true
        (List.mem required ids))
    [ "table1"; "figure2"; "figure3"; "figure4"; "dma-bounds" ];
  Alcotest.(check bool) "all ids unique" true
    (List.length ids = List.length (List.sort_uniq compare ids))

let suite =
  [
    Alcotest.test_case "2.5.1 exact bounds" `Quick test_dma_bounds_exact;
    Alcotest.test_case "table 1 shape" `Quick test_latency_shape;
    Alcotest.test_case "table 1 machine ordering" `Quick
      test_latency_machine_ordering;
    Alcotest.test_case "figure 2 shape" `Quick test_receive_side_shape;
    Alcotest.test_case "checksum collapse (80 Mbps)" `Quick
      test_checksum_collapse;
    Alcotest.test_case "figure 4 plateau" `Quick test_transmit_shape;
    Alcotest.test_case "2.2 fragmentation counts" `Quick
      test_fragmentation_counts;
    Alcotest.test_case "2.1.2 interrupt coalescing" `Quick
      test_interrupt_coalescing_counts;
    Alcotest.test_case "2.6 skew strategies" `Quick test_skew_strategies;
    Alcotest.test_case "3.2 ADC latency parity" `Quick test_adc_parity;
    Alcotest.test_case "3.1 priority under overload" `Quick
      test_priority_under_overload;
    Alcotest.test_case "2.3 lazy cache mechanics" `Quick
      test_lazy_cache_mechanics;
    Alcotest.test_case "4 ethernet baseline" `Quick test_ethernet_baseline;
    Alcotest.test_case "2.5.1 multiplexing granularity" `Quick
      test_multiplexing_granularity;
    Alcotest.test_case "congestion run deterministic" `Quick
      test_congestion_deterministic;
    Alcotest.test_case "registry sanity" `Quick test_registry_complete;
    Alcotest.test_case "demux_scale smoke" `Quick test_demux_scale_smoke;
    Alcotest.test_case "measure: unanswered ping fails" `Quick
      test_measure_unanswered;
    Alcotest.test_case "measure: fixed 100 us echo" `Quick
      test_measure_fixed_echo;
    Alcotest.test_case "measure: window rate" `Quick test_measure_window_rate;
  ]
