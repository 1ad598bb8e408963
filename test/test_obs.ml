(* Tests for the observability layer: the metrics registry, JSON
   rendering (including the BENCH.json schema), descriptor-queue access
   accounting under the shadow-pointer discipline, and SAR reassembly
   rejection paths. *)

open Osiris_sim
module Metrics = Osiris_obs.Metrics
module Json = Osiris_obs.Json
module Stats = Osiris_util.Stats
module Report = Osiris_experiments.Report
module Desc_queue = Osiris_board.Desc_queue
module Desc = Osiris_board.Desc
module Sar = Osiris_atm.Sar
module Cell = Osiris_atm.Cell

(* ------------------------------------------------------------------ *)
(* Metrics registry. *)

let test_counter_aggregation () =
  Metrics.reset ();
  let a = Metrics.counter "t.ctr" in
  let b = Metrics.counter "t.ctr" in
  Metrics.add a 3;
  Metrics.incr b;
  Alcotest.(check int) "per-handle value" 3 (Metrics.counter_value a);
  (match Metrics.find "t.ctr" with
  | Some (Metrics.V_int n) -> Alcotest.(check int) "same-name handles sum" 4 n
  | _ -> Alcotest.fail "counter not in snapshot");
  Metrics.reset ();
  Alcotest.(check bool) "reset hides the name" true (Metrics.find "t.ctr" = None);
  Metrics.incr a;
  Alcotest.(check int) "handle keeps working after reset" 4
    (Metrics.counter_value a)

let test_dists_and_histograms () =
  Metrics.reset ();
  let d1 = Metrics.dist "t.d" in
  let d2 = Metrics.dist "t.d" in
  List.iter (fun x -> Stats.add d1 x) [ 1.0; 2.0 ];
  Stats.add d2 3.0;
  let h = Metrics.histogram "t.h" ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (fun x -> Stats.Histogram.add h x) [ 1.0; 5.0; 5.0; 9.0 ];
  (match Metrics.find "t.d" with
  | Some (Metrics.V_dist dv) ->
      Alcotest.(check int) "merged count" 3 dv.Metrics.d_n;
      Alcotest.(check (float 1e-9)) "merged mean" 2.0 dv.Metrics.d_mean;
      Alcotest.(check (float 1e-9)) "merged sum" 6.0 dv.Metrics.d_sum
  | _ -> Alcotest.fail "dist missing");
  (match Metrics.find "t.h" with
  | Some (Metrics.V_hist hv) ->
      Alcotest.(check int) "histogram count" 4 hv.Metrics.h_n;
      Alcotest.(check bool) "p50 in range" true
        (hv.Metrics.h_p50 >= 4.0 && hv.Metrics.h_p50 <= 6.0)
  | _ -> Alcotest.fail "histogram missing");
  Metrics.reset ()

let test_snapshot_sorted_json () =
  Metrics.reset ();
  ignore (Metrics.counter "b.x");
  let a = Metrics.counter "a.y" in
  Metrics.add a 2;
  Alcotest.(check string) "keys sorted, counters as ints"
    "{\"a.y\":2,\"b.x\":0}"
    (Json.to_string (Metrics.to_json ()));
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* JSON builder corners. *)

let test_json_escaping_and_floats () =
  Alcotest.(check string) "escapes" "{\"k\\n\":\"v\\\"q\\\\\"}"
    (Json.to_string (Json.Assoc [ ("k\n", Json.String "v\"q\\") ]));
  Alcotest.(check string) "control chars" "\"\\u0001\""
    (Json.to_string (Json.String "\001"));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "composite" "[1,true,null,1.5]"
    (Json.to_string (Json.List [ Json.Int 1; Json.Bool true; Json.Null;
                                 Json.Float 1.5 ]))

(* ------------------------------------------------------------------ *)
(* BENCH.json schema (golden). *)

let test_bench_json_golden () =
  Metrics.reset ();
  let table =
    { Report.t_title = "t"; header = [ "a"; "b" ]; rows = [ [ "1"; "2" ] ];
      t_paper_note = "n" }
  in
  let figure =
    { Report.title = "f"; xlabel = "x"; ylabel = "y";
      series = [ { Report.label = "s"; points = [ (1, 1.5) ] } ];
      paper_note = "p" }
  in
  let doc =
    Report.bench_json ~mode:"test"
      ~experiments:
        [ ("t1", "a table", Report.table_json table);
          ("f1", "a figure", Report.figure_json figure) ]
  in
  let expected =
    "{\"schema\":\"osiris-bench/9\",\"mode\":\"test\",\"experiments\":[\
     {\"id\":\"t1\",\"description\":\"a table\",\"result\":{\"kind\":\"table\",\
     \"title\":\"t\",\"header\":[\"a\",\"b\"],\"rows\":[[\"1\",\"2\"]],\
     \"paper_note\":\"n\"}},{\"id\":\"f1\",\"description\":\"a figure\",\
     \"result\":{\"kind\":\"figure\",\"title\":\"f\",\"xlabel\":\"x\",\
     \"ylabel\":\"y\",\"series\":[{\"label\":\"s\",\"points\":[{\"x\":1,\
     \"y\":1.5}]}],\"paper_note\":\"p\"}}],\"metrics\":{}}"
  in
  Alcotest.(check string) "BENCH.json document" expected (Json.to_string doc)

(* ------------------------------------------------------------------ *)
(* Descriptor-queue access accounting. *)

let in_process eng f =
  let done_ = ref false in
  Process.spawn eng ~name:"t" (fun () ->
      f ();
      done_ := true);
  Engine.run eng;
  Alcotest.(check bool) "test process ran to completion" true !done_

(* One real pointer read per burst, shadow hits for the rest — including
   across head/tail wraparound (size 8, 4 bursts of 5). *)
let test_queue_shadow_wraparound () =
  let eng = Engine.create () in
  let q =
    Desc_queue.create eng ~size:8 ~direction:Desc_queue.Board_to_host
      ~locking:Desc_queue.Lock_free ~hooks:Desc_queue.free_hooks ()
  in
  in_process eng (fun () ->
      for burst = 1 to 4 do
        for i = 1 to 5 do
          Alcotest.(check bool) "board enqueue" true
            (Test_board.board eng (fun a ->
                 Desc_queue.board_enqueue_then q a
                   (Desc.v ~addr:(((burst * 10) + i) * 4096) ~len:64 ())))
        done;
        let s0 = Desc_queue.access_stats q in
        for _ = 1 to 5 do
          if Desc_queue.host_dequeue q = None then
            Alcotest.fail "queue lost an element"
        done;
        let s1 = Desc_queue.access_stats q in
        Alcotest.(check int)
          (Printf.sprintf "burst %d: 4 of 5 probes resolved by the shadow"
             burst)
          4
          (s1.Desc_queue.shadow_hits - s0.Desc_queue.shadow_hits)
      done)

(* The transmit-stall probe must charge PIO like a failing enqueue
   (bugfix: the stall path used to consult [is_full] for free). *)
let test_probe_full_is_accounted () =
  let eng = Engine.create () in
  let q =
    Desc_queue.create eng ~size:4 ~direction:Desc_queue.Host_to_board
      ~locking:Desc_queue.Lock_free ~hooks:Desc_queue.free_hooks ()
  in
  let rxq =
    Desc_queue.create eng ~size:4 ~direction:Desc_queue.Board_to_host
      ~locking:Desc_queue.Lock_free ~hooks:Desc_queue.free_hooks ()
  in
  in_process eng (fun () ->
      for i = 1 to 3 do
        Alcotest.(check bool) "fill" true
          (Desc_queue.host_enqueue q (Desc.v ~addr:(i * 4096) ~len:64 ()))
      done;
      Alcotest.(check bool) "queue is full" true (Desc_queue.is_full q);
      let s0 = Desc_queue.access_stats q in
      Alcotest.(check bool) "probe sees full" true
        (Desc_queue.host_probe_full q);
      let s1 = Desc_queue.access_stats q in
      Alcotest.(check bool) "probe paid a pointer read" true
        (s1.Desc_queue.host_reads > s0.Desc_queue.host_reads);
      (match Desc_queue.host_probe_full rxq with
      | _ -> Alcotest.fail "probe on a receive queue must be rejected"
      | exception Invalid_argument _ -> ()))

(* ------------------------------------------------------------------ *)
(* SAR Per_link rejection paths. *)

let cells_of pdu ~nlinks = Array.of_list (Sar.segment ~vci:1 ~nlinks pdu)

let test_sar_duplicate_rejected () =
  let cells = cells_of (Bytes.make 150 'a') ~nlinks:2 in
  Alcotest.(check int) "4 cells" 4 (Array.length cells);
  let sar = Sar.create (Sar.Per_link 2) ~max_cells:64 in
  let push k =
    Sar.push sar ~link:(cells.(k).Cell.seq mod 2) cells.(k)
  in
  (match push 0 with Sar.Placed _ -> () | _ -> Alcotest.fail "cell 0");
  (match push 1 with Sar.Placed _ -> () | _ -> Alcotest.fail "cell 1");
  (match push 2 with Sar.Placed _ -> () | _ -> Alcotest.fail "cell 2");
  (* The same cell arrives again (e.g. a striping fault). *)
  (match push 2 with Sar.Placed _ -> () | _ -> Alcotest.fail "dup placed");
  match push 3 with
  | Sar.Rejected reason ->
      Alcotest.(check string) "over-count detected"
        "more cells than the PDU length allows" reason
  | _ -> Alcotest.fail "duplicate cell went unnoticed"

let test_sar_overflow_rejected () =
  let cells = cells_of (Bytes.make 150 'b') ~nlinks:2 in
  let sar = Sar.create (Sar.Per_link 2) ~max_cells:3 in
  for k = 0 to 2 do
    match Sar.push sar ~link:(cells.(k).Cell.seq mod 2) cells.(k) with
    | Sar.Placed _ -> ()
    | _ -> Alcotest.fail "premature completion/rejection"
  done;
  match Sar.push sar ~link:(cells.(3).Cell.seq mod 2) cells.(3) with
  | Sar.Rejected reason ->
      Alcotest.(check string) "bounded reassembly" "reassembly overflow"
        reason
  | _ -> Alcotest.fail "overflow went unnoticed"

(* ------------------------------------------------------------------ *)
(* Trace guard: [enabled] is a cached flag, so every configuration
   change must update it. *)

let test_trace_enabled_follows_configuration () =
  let module Trace = Osiris_obs.Trace in
  let expect what want =
    List.iter
      (fun c ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" what (Trace.category_name c))
          (want c) (Trace.enabled c))
      Trace.all
  in
  let none _ = false and every _ = true in
  Trace.reset_for_testing ();
  expect "after reset" none;
  Trace.enable Trace.Driver;
  Trace.enable Trace.Link;
  expect "stderr for two categories" (fun c ->
      c = Trace.Driver || c = Trace.Link);
  Trace.disable Trace.Driver;
  expect "one disabled" (fun c -> c = Trace.Link);
  let path = Filename.temp_file "osiris_trace" ".jsonl" in
  Trace.set_json_path (Some path);
  expect "JSONL sink open" every;
  Trace.set_json_path None;
  Sys.remove path;
  expect "JSONL sink closed" (fun c -> c = Trace.Link);
  Trace.reset_for_testing ();
  expect "reset clears stderr" none;
  Trace.on_event ignore;
  expect "callback sink" every;
  Trace.reset_for_testing ();
  expect "reset drops the callback" none

let suite =
  [
    Alcotest.test_case "counter aggregation & reset" `Quick
      test_counter_aggregation;
    Alcotest.test_case "dists and histograms merge" `Quick
      test_dists_and_histograms;
    Alcotest.test_case "snapshot JSON sorted" `Quick test_snapshot_sorted_json;
    Alcotest.test_case "JSON escaping & floats" `Quick
      test_json_escaping_and_floats;
    Alcotest.test_case "BENCH.json golden schema" `Quick
      test_bench_json_golden;
    Alcotest.test_case "queue shadow stats across wraparound" `Quick
      test_queue_shadow_wraparound;
    Alcotest.test_case "host_probe_full is accounted" `Quick
      test_probe_full_is_accounted;
    Alcotest.test_case "sar per-link duplicate rejected" `Quick
      test_sar_duplicate_rejected;
    Alcotest.test_case "sar per-link overflow rejected" `Quick
      test_sar_overflow_rejected;
    Alcotest.test_case "trace: enabled follows configuration" `Quick
      test_trace_enabled_follows_configuration;
  ]
