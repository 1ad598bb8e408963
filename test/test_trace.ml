(* Tests for the trace facility. *)

module Trace = Osiris_obs.Trace

let test_enable_disable () =
  Trace.disable Trace.Driver;
  Alcotest.(check bool) "off by default" false (Trace.enabled Trace.Driver);
  Trace.enable Trace.Driver;
  Alcotest.(check bool) "on after enable" true (Trace.enabled Trace.Driver);
  Trace.disable Trace.Driver;
  Alcotest.(check bool) "off after disable" false (Trace.enabled Trace.Driver)

let test_emit_disabled_is_cheap () =
  Trace.disable Trace.Link;
  (* Must not raise and must not evaluate into visible output. *)
  Trace.emitf Trace.Link ~now:0 "never shown %d" 42;
  Trace.emit Trace.Link ~now:0 "never shown"

let test_category_names () =
  List.iter
    (fun (c, n) -> Alcotest.(check string) "name" n (Trace.category_name c))
    [ (Trace.Board_tx, "board-tx"); (Trace.Board_rx, "board-rx");
      (Trace.Driver, "driver"); (Trace.Protocol, "protocol");
      (Trace.Link, "link") ]

(* A callback sink counts as an observer: events must flow, be numbered
   from 1, and land in the ring; reset must clear it all. *)
let test_ring_and_reset () =
  Trace.reset_for_testing ();
  let seen = ref 0 in
  Trace.on_event (fun _ -> incr seen);
  Alcotest.(check bool) "sink makes category enabled" true
    (Trace.enabled Trace.Board_rx);
  Trace.emit Trace.Board_rx ~now:10 "one";
  Trace.emitf Trace.Driver ~now:20 "two %d" 2;
  Alcotest.(check int) "sink saw both" 2 !seen;
  Alcotest.(check int) "emission count" 2 (Trace.events_emitted ());
  (match Trace.recent () with
  | [ e1; e2 ] ->
      Alcotest.(check int) "seq starts at 1" 1 e1.Trace.seq;
      Alcotest.(check string) "first msg" "one" e1.Trace.msg;
      Alcotest.(check int) "first timestamp" 10 e1.Trace.t_ns;
      Alcotest.(check int) "seq increments" 2 e2.Trace.seq;
      Alcotest.(check string) "formatted msg" "two 2" e2.Trace.msg
  | evs ->
      Alcotest.fail (Printf.sprintf "ring holds %d events" (List.length evs)));
  Trace.reset_for_testing ();
  Alcotest.(check int) "reset clears the count" 0 (Trace.events_emitted ());
  Alcotest.(check int) "reset clears the ring" 0
    (List.length (Trace.recent ()));
  Alcotest.(check bool) "reset drops the sink" false
    (Trace.enabled Trace.Board_rx)

let test_jsonl_sink () =
  Trace.reset_for_testing ();
  let path = Filename.temp_file "osiris_trace" ".jsonl" in
  Trace.set_json_path (Some path);
  Trace.emit Trace.Link ~now:1500 "cell";
  Trace.emitf Trace.Driver ~now:2500 "pdu %d" 7;
  Trace.set_json_path None;
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  let eof = try ignore (input_line ic); false with End_of_file -> true in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "line 1"
    "{\"seq\":1,\"t_ns\":1500,\"t_us\":1.5,\"cat\":\"link\",\"msg\":\"cell\"}"
    l1;
  Alcotest.(check string) "line 2"
    "{\"seq\":2,\"t_ns\":2500,\"t_us\":2.5,\"cat\":\"driver\",\"msg\":\"pdu 7\"}"
    l2;
  Alcotest.(check bool) "one line per event" true eof;
  Trace.reset_for_testing ()

(* Regression: the disabled [emitf] path used to render into the shared
   [Format.str_formatter], clobbering concurrent users of it. *)
let test_disabled_emitf_leaves_str_formatter_alone () =
  Trace.reset_for_testing ();
  Format.fprintf Format.str_formatter "keep";
  Trace.emitf Trace.Protocol ~now:0 "dropped %s %d" "x" 1;
  Alcotest.(check string) "str_formatter untouched" "keep"
    (Format.flush_str_formatter ())

let suite =
  [
    Alcotest.test_case "enable/disable" `Quick test_enable_disable;
    Alcotest.test_case "disabled emit is silent" `Quick
      test_emit_disabled_is_cheap;
    Alcotest.test_case "category names" `Quick test_category_names;
    Alcotest.test_case "ring, sinks and reset" `Quick test_ring_and_reset;
    Alcotest.test_case "JSONL sink" `Quick test_jsonl_sink;
    Alcotest.test_case "disabled emitf spares str_formatter" `Quick
      test_disabled_emitf_leaves_str_formatter_alone;
  ]
