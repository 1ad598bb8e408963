(* REPS balancer unit + property tests, and one end-to-end spray over a
   generated fat-tree.

   The unit tests pin the semantics the multipath experiment leans on:
   recycled entropy is preferred, freeze happens after enough clean
   acks, an ECE mark evicts one cached path without unfreezing, a loss
   purges the FIFO, and only a timeout resets everything. The property
   test drives a random operation sequence and requires the structural
   invariants to hold at every step. The e2e test sprays one reliable
   connection across a k=4 fat-tree and audits byte-exact delivery,
   spray bookkeeping and the whole fabric. *)

open Osiris_sim
module Reps = Osiris_lb.Reps
module Spray = Osiris_lb.Spray
module Network = Osiris_core.Network
module Host = Osiris_core.Host
module Driver = Osiris_core.Driver
module Msg = Osiris_xkernel.Msg
module Switch = Osiris_switch.Switch
module Sender = Osiris_transport.Sender
module Congestion = Osiris_experiments.Congestion

let no_invariant_errors t =
  Alcotest.(check (list string)) "reps invariants" [] (Reps.invariants t)

(* ------------------------------------------------------------------ *)
(* State size: the ISSUE's hard bound. *)

let test_state_bytes () =
  let t = Reps.create ~npaths:16 () in
  Alcotest.(check bool) "default state fits 25 bytes" true
    (Reps.state_bytes t <= 25);
  let small = Reps.create ~fifo:8 ~npaths:4 () in
  Alcotest.(check bool) "smaller FIFO, smaller state" true
    (Reps.state_bytes small < Reps.state_bytes t)

(* ------------------------------------------------------------------ *)
(* Pick-order semantics. *)

let test_recycle_preferred () =
  let t = Reps.create ~npaths:8 () in
  (* no entropy yet: explore *)
  let p0 = Reps.pick t in
  Alcotest.(check bool) "explore pick in range" true (p0 >= 0 && p0 < 8);
  Alcotest.(check int) "fresh pick counted" 1 (Reps.stats t).Reps.fresh;
  (* a clean ack's entropy is re-used verbatim, FIFO order *)
  Reps.on_ack t ~path:3 ~ece:false;
  Reps.on_ack t ~path:5 ~ece:false;
  Alcotest.(check int) "recycled first-in" 3 (Reps.pick t);
  Alcotest.(check int) "recycled second" 5 (Reps.pick t);
  Alcotest.(check int) "recycled picks counted" 2
    (Reps.stats t).Reps.recycled;
  no_invariant_errors t

let test_garbled_entropy_ignored () =
  let t = Reps.create ~npaths:4 () in
  Reps.on_ack t ~path:200 ~ece:false;
  Reps.on_ack t ~path:(-1) ~ece:false;
  Alcotest.(check int) "nothing buffered" 0 (Reps.fifo_len t);
  Reps.on_loss t ~path:77;
  no_invariant_errors t

let freeze t ~npaths =
  for i = 0 to (2 * npaths) - 1 do
    Reps.on_ack t ~path:(i mod npaths) ~ece:false
  done;
  (* drain the recycled entropy so later picks exercise the bitmap *)
  while Reps.fifo_len t > 0 do
    ignore (Reps.pick t)
  done

let test_freeze_then_cached_picks () =
  let np = 4 in
  let t = Reps.create ~npaths:np () in
  Alcotest.(check bool) "starts exploring" false (Reps.frozen t);
  freeze t ~npaths:np;
  Alcotest.(check bool) "frozen after 2*npaths clean acks" true
    (Reps.frozen t);
  let before = (Reps.stats t).Reps.cached_picks in
  let p = Reps.pick t in
  Alcotest.(check int) "empty-FIFO frozen pick is cached" (before + 1)
    (Reps.stats t).Reps.cached_picks;
  Alcotest.(check bool) "cached pick from the bitmap" true
    (Reps.cached_bitmap t land (1 lsl p) <> 0);
  no_invariant_errors t

let test_ece_evicts_but_stays_frozen () =
  let np = 4 in
  let t = Reps.create ~npaths:np () in
  freeze t ~npaths:np;
  let bit p = Reps.cached_bitmap t land (1 lsl p) <> 0 in
  Alcotest.(check bool) "path 2 cached before mark" true (bit 2);
  Reps.on_ack t ~path:2 ~ece:true;
  Alcotest.(check bool) "mark evicts the path" false (bit 2);
  Alcotest.(check bool) "mark does not unfreeze" true (Reps.frozen t);
  Alcotest.(check int) "mark recycles nothing" 0 (Reps.fifo_len t);
  (* picks now avoid the marked path while any cached path remains *)
  for _ = 1 to 32 do
    Alcotest.(check bool) "frozen picks avoid marked path" true
      (Reps.pick t <> 2)
  done;
  no_invariant_errors t

let test_loss_purges_fifo () =
  let t = Reps.create ~npaths:8 () in
  List.iter (fun p -> Reps.on_ack t ~path:p ~ece:false) [ 1; 2; 1; 3; 1 ];
  Alcotest.(check int) "five buffered" 5 (Reps.fifo_len t);
  Reps.on_loss t ~path:1;
  Alcotest.(check int) "loss purges that path's entropy" 2 (Reps.fifo_len t);
  Alcotest.(check int) "purge counted" 3 (Reps.stats t).Reps.purged;
  Alcotest.(check int) "survivors keep FIFO order" 2 (Reps.pick t);
  Alcotest.(check int) "survivors keep FIFO order (2)" 3 (Reps.pick t);
  Alcotest.(check bool) "cached bit cleared" true
    (Reps.cached_bitmap t land 0b10 = 0);
  no_invariant_errors t

let test_timeout_resets () =
  let np = 4 in
  let t = Reps.create ~npaths:np () in
  freeze t ~npaths:np;
  Reps.on_ack t ~path:0 ~ece:false;
  Reps.on_timeout t;
  Alcotest.(check int) "FIFO flushed" 0 (Reps.fifo_len t);
  Alcotest.(check int) "bitmap cleared" 0 (Reps.cached_bitmap t);
  Alcotest.(check bool) "back to explore" false (Reps.frozen t);
  let before = (Reps.stats t).Reps.fresh in
  ignore (Reps.pick t);
  Alcotest.(check int) "post-timeout pick is fresh" (before + 1)
    (Reps.stats t).Reps.fresh;
  no_invariant_errors t

(* ------------------------------------------------------------------ *)
(* Property: any operation sequence keeps the structural invariants and
   every pick in range. *)

type op = Pick | Ack of int * bool | Loss of int | Timeout

let op_print = function
  | Pick -> "pick"
  | Ack (p, e) -> Printf.sprintf "ack(%d,%b)" p e
  | Loss p -> Printf.sprintf "loss(%d)" p
  | Timeout -> "timeout"

let qcheck_op_sequence =
  let open QCheck in
  let gen =
    let open Gen in
    let path = -1 -- 20 in
    pair (1 -- 16)
      (list_size (0 -- 200)
         (frequency
            [
              (4, return Pick);
              (4, pair path bool >|= fun (p, e) -> Ack (p, e));
              (1, path >|= fun p -> Loss p);
              (1, return Timeout);
            ]))
  in
  let print (np, ops) =
    Printf.sprintf "npaths=%d [%s]" np
      (String.concat "; " (List.map op_print ops))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:200
       ~name:"random op sequence: invariants hold, picks in range"
       (make ~print gen)
       (fun (np, ops) ->
         let t = Reps.create ~fifo:8 ~npaths:np ~seed:np () in
         List.for_all
           (fun op ->
             (match op with
             | Pick ->
                 let p = Reps.pick t in
                 if p < 0 || p >= np then failwith "pick out of range"
             | Ack (p, e) -> Reps.on_ack t ~path:p ~ece:e
             | Loss p -> Reps.on_loss t ~path:p
             | Timeout -> Reps.on_timeout t);
             Reps.invariants t = [])
           ops))

(* ------------------------------------------------------------------ *)
(* End to end: one connection sprayed across a generated k=4 fat-tree
   (8 hosts, 20 switches, 4 equal-cost inter-pod paths). *)

let test_spray_fat_tree () =
  let eng, topo =
    Network.fat_tree ~k:4 ~hosts_per_edge:1
      ~machine:Congestion.small_machine ()
  in
  let sink = Buffer.create 1024 in
  let payload = Bytes.init 8192 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let conn =
    Spray.connect topo ~config:Congestion.transport_config ~mode:Spray.Reps
      ~src:0 ~dst:2 ~deliver:(fun b -> Buffer.add_bytes sink b) ()
  in
  Alcotest.(check int) "inter-pod path set" 4 (Spray.npaths conn);
  Spray.send conn payload;
  Spray.close conn;
  let cap = Time.s 2 in
  let rec drive () =
    if Spray.state conn = Sender.Active && Engine.now eng < cap then begin
      Engine.run ~until:(Engine.now eng + Time.ms 5) eng;
      drive ()
    end
  in
  drive ();
  Engine.run ~until:(Engine.now eng + Time.ms 10) eng;
  Alcotest.(check bool) "connection finished" true
    (Spray.state conn = Sender.Finished);
  Alcotest.(check bool) "delivered byte-exact" true
    (Bytes.equal (Buffer.to_bytes sink) payload);
  (* the spray actually spread: more than one path carried data *)
  let used = ref 0 in
  for p = 0 to Spray.npaths conn - 1 do
    if Spray.sends conn p > 0 then incr used
  done;
  Alcotest.(check bool) "spray used several paths" true (!used >= 2);
  Alcotest.(check (list string)) "spray invariants" [] (Spray.invariants conn);
  Alcotest.(check (list string)) "fabric audit" [] (Network.audit topo)

(* A PDU that is not valid transport data, sent on a single-path
   connection's data VCI in the middle of a transfer: the glue counts it
   as garbled and drops it, and the stream still finishes byte-exact. *)
let test_spray_counts_garbled () =
  let eng, topo =
    Network.star ~n:2
      ~switch:{ Switch.default_config with Switch.queue_cells = 1024 }
      ()
  in
  let sink = Buffer.create 1024 in
  let payload = Bytes.init 65536 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let conn =
    Spray.connect topo ~mode:Spray.Single ~src:0 ~dst:1
      ~deliver:(Buffer.add_bytes sink) ()
  in
  let src = Network.host topo 0 in
  let at_injection = ref (-1) in
  Process.spawn eng (fun () ->
      Process.sleep eng (Time.ms 1);
      at_injection := Buffer.length sink;
      let junk = Msg.alloc src.Host.vs ~len:64 ~fill:(fun _ -> '\000') () in
      Driver.send src.Host.driver
        ~vci:(Spray.mvc conn).Network.src_vcis.(0)
        ~from_user:false junk);
  Spray.send conn payload;
  Spray.close conn;
  Engine.run ~until:(Time.ms 200) eng;
  Alcotest.(check bool) "injected mid-transfer" true
    (!at_injection > 0 && !at_injection < Bytes.length payload);
  Alcotest.(check int) "one garbled PDU" 1 (Spray.garbled conn);
  Alcotest.(check bool) "connection finished" true
    (Spray.state conn = Sender.Finished);
  Alcotest.(check bool) "delivered byte-exact" true
    (Bytes.equal (Buffer.to_bytes sink) payload);
  Alcotest.(check (list string)) "spray invariants" [] (Spray.invariants conn);
  Alcotest.(check (list string)) "fabric audit" [] (Network.audit topo)

let suite =
  [
    Alcotest.test_case "state fits 25 bytes" `Quick test_state_bytes;
    Alcotest.test_case "recycled entropy preferred, FIFO order" `Quick
      test_recycle_preferred;
    Alcotest.test_case "garbled entropy ignored" `Quick
      test_garbled_entropy_ignored;
    Alcotest.test_case "freeze after clean acks; cached picks" `Quick
      test_freeze_then_cached_picks;
    Alcotest.test_case "ECE evicts one path, stays frozen" `Quick
      test_ece_evicts_but_stays_frozen;
    Alcotest.test_case "loss purges the FIFO" `Quick test_loss_purges_fifo;
    Alcotest.test_case "timeout resets to explore" `Quick test_timeout_resets;
    qcheck_op_sequence;
    Alcotest.test_case "spray across a k=4 fat-tree" `Quick
      test_spray_fat_tree;
    Alcotest.test_case "garbled PDU on the data VCI is counted" `Quick
      test_spray_counts_garbled;
  ]
