(* The classification table against a Hashtbl model: random operation
   interleavings must agree with the model, both ways, at small sizes and
   at demux_scale's key shapes and sizes; the probe bound must never be
   exceeded, and the structural [check] must stay clean. *)

module Table = Osiris_classify.Table
module Cost = Osiris_classify.Cost

let check_clean what t =
  match Table.check t with
  | [] -> ()
  | vs -> Alcotest.failf "%s: %s" what (String.concat "; " vs)

(* --- unit coverage ------------------------------------------------ *)

let test_basics () =
  let t = Table.create ~dummy:(-1) 8 in
  Alcotest.(check int) "empty" 0 (Table.length t);
  Table.add t 7 70;
  Table.add t 9 90;
  Alcotest.(check (option int)) "find 7" (Some 70) (Table.find t 7);
  Alcotest.(check (option int)) "find 9" (Some 90) (Table.find t 9);
  Alcotest.(check (option int)) "miss" None (Table.find t 8);
  Table.add t 7 71;
  Alcotest.(check (option int)) "replace" (Some 71) (Table.find t 7);
  Alcotest.(check int) "length after replace" 2 (Table.length t);
  Alcotest.(check bool) "member before remove" true (Table.mem t 7);
  Table.remove t 7;
  Alcotest.(check bool) "member after remove" false (Table.mem t 7);
  Table.remove t 7;
  Alcotest.(check (option int)) "gone" None (Table.find t 7);
  Alcotest.(check (option int)) "survivor" (Some 90) (Table.find t 9);
  check_clean "basics" t

let test_negative_key_rejected () =
  let t = Table.create ~dummy:0 8 in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Classify.Table.add: negative key") (fun () ->
      Table.add t (-3) 1);
  Alcotest.(check (option int)) "negative find" None (Table.find t (-3));
  Alcotest.(check int) "negative find_slot" (-1) (Table.find_slot t (-3))

let test_growth_keeps_everything () =
  let t = Table.create ~dummy:0 8 in
  for k = 0 to 4095 do
    Table.add t (k * 17) k
  done;
  Alcotest.(check int) "length" 4096 (Table.length t);
  Alcotest.(check bool) "capacity grew" true (Table.capacity t >= 4096);
  for k = 0 to 4095 do
    match Table.find t (k * 17) with
    | Some v -> Alcotest.(check int) "value" k v
    | None -> Alcotest.failf "key %d lost across growth" (k * 17)
  done;
  check_clean "growth" t

let test_find_slot_hot_path () =
  let t = Table.create ~dummy:"" 8 in
  Table.add t 42 "answer";
  let slot = Table.find_slot t 42 in
  Alcotest.(check bool) "hit slot" true (slot >= 0);
  Alcotest.(check string) "slot value" "answer" (Table.slot_value t slot);
  Alcotest.(check int) "slot key" 42 (Table.slot_key t slot);
  Alcotest.(check int) "miss slot" (-1) (Table.find_slot t 43);
  let s = Table.probe_stats t in
  Alcotest.(check int) "lookups recorded" 2 s.Table.lookups;
  Alcotest.(check bool) "probes counted" true (s.Table.probes >= 2);
  Table.reset_probe_stats t;
  Alcotest.(check int) "reset" 0 (Table.probe_stats t).Table.lookups

let test_fold_iter_resident () =
  let t = Table.create ~dummy:0 8 in
  List.iter (fun k -> Table.add t k (k * 2)) [ 1; 2; 3; 4; 5 ];
  let n = ref 0 in
  Table.iter (fun k v -> Alcotest.(check int) "iter" (k * 2) v; incr n) t;
  Alcotest.(check int) "iter count" 5 !n;
  let sum = Table.fold (fun k _ acc -> acc + k) t 0 in
  Alcotest.(check int) "fold keys" 15 sum;
  Alcotest.(check bool) "resident bytes" true (Table.resident_bytes t > 0)

(* --- qcheck: model equivalence ------------------------------------ *)

type op = Add of int * int | Remove of int | Find of int

let op_gen key =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) key (int_bound 10_000));
        (2, map (fun k -> Remove k) key);
        (3, map (fun k -> Find k) key);
      ])

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Add (k, v) -> Printf.sprintf "add %d=%d" k v
         | Remove k -> Printf.sprintf "del %d" k
         | Find k -> Printf.sprintf "find %d" k)
       ops)

(* The end state, both ways: every model binding is in the table with
   its value, every table binding is in the model, and the lengths are
   equal. *)
let check_agrees t model =
  Hashtbl.iter
    (fun k v ->
      if Table.find t k <> Some v then
        QCheck.Test.fail_reportf "model binding %d=%d missing from the table"
          k v)
    model;
  let folded =
    Table.fold
      (fun k v n ->
        if Hashtbl.find_opt model k <> Some v then
          QCheck.Test.fail_reportf "table binding %d=%d not in the model" k v;
        n + 1)
      t 0
  in
  if folded <> Hashtbl.length model || Table.length t <> folded then
    QCheck.Test.fail_reportf "table length %d (%d folded), model %d"
      (Table.length t) folded (Hashtbl.length model)

(* Random interleavings against the model, with [Table.check] after
   every [check_every]-th operation and at the end. *)
let model_equivalence ~name ~count ~check_every ops =
  QCheck.Test.make ~name ~count (QCheck.make ~print:print_ops ops)
    (fun ops ->
      let t = Table.create ~dummy:(-1) 8 in
      let model = Hashtbl.create 16 in
      let check_clean () =
        match Table.check t with
        | [] -> ()
        | vs ->
            QCheck.Test.fail_reportf "check dirty: %s" (String.concat "; " vs)
      in
      List.iteri
        (fun i op ->
          (match op with
          | Add (k, v) ->
              Table.add t k v;
              Hashtbl.replace model k v
          | Remove k ->
              if Table.mem t k <> Hashtbl.mem model k then
                QCheck.Test.fail_reportf "mem %d disagreed with model" k;
              Table.remove t k;
              Hashtbl.remove model k
          | Find k ->
              if Table.find t k <> Hashtbl.find_opt model k then
                QCheck.Test.fail_reportf "find %d disagreed with model" k);
          if (i + 1) mod check_every = 0 then check_clean ())
        ops;
      check_clean ();
      check_agrees t model;
      true)

let small_model =
  model_equivalence ~name:"classify: table = Hashtbl model under interleavings"
    ~count:200 ~check_every:1
    QCheck.Gen.(list_size (int_bound 400) (op_gen (int_bound 300)))

(* demux_scale's shapes: a sequence keys either the board's VC demux
   (VCIs from 32, one per open VC, up to 8192 of them) or the switch's
   routing table ([(port lsl 16) lor vci]). [Table.check] is O(capacity),
   so it runs every 1,000 operations here, not after each. *)
let dense_model =
  let vci = QCheck.Gen.int_range 32 8223 in
  let route =
    QCheck.Gen.(map2 (fun port v -> (port lsl 16) lor v) (int_bound 3) vci)
  in
  model_equivalence
    ~name:"classify: table = Hashtbl model at demux_scale's keys and sizes"
    ~count:20 ~check_every:1_000
    QCheck.Gen.(
      bool >>= fun routing ->
      list_size (int_bound 20_000) (op_gen (if routing then route else vci)))

let probe_bound_holds =
  QCheck.Test.make ~name:"classify: probe bound never exceeded" ~count:100
    QCheck.(list_of_size Gen.(int_bound 2_000) (int_bound 1_000_000))
    (fun keys ->
      let t = Table.create ~probe_bound:8 ~dummy:0 8 in
      List.iteri (fun i k -> Table.add t k i) keys;
      List.iter (fun k -> ignore (Table.find_slot t k)) keys;
      let s = Table.probe_stats t in
      s.Table.max_probe <= Table.probe_bound t
      && s.Table.p99_probe <= s.Table.max_probe)

(* --- cost model --------------------------------------------------- *)

let test_cost_model () =
  (* One probe = one line fill: (13 + 1) cycles at 25 MHz = 560 ns. *)
  let p = Cost.of_cache ~cpu_hz:25_000_000 ~fill_overhead_cycles:13 in
  Alcotest.(check (float 1e-6)) "access" 560.0 (Cost.lookup_ns p ~probes:1.0);
  Alcotest.(check (float 1e-6)) "two probes" 1120.0
    (Cost.lookup_ns p ~probes:2.0);
  Alcotest.check_raises "bad hz" (Invalid_argument "Classify.Cost.of_cache: cpu_hz <= 0")
    (fun () ->
      ignore (Cost.of_cache ~cpu_hz:0 ~fill_overhead_cycles:1))

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "negative keys rejected" `Quick
      test_negative_key_rejected;
    Alcotest.test_case "growth keeps everything" `Quick
      test_growth_keeps_everything;
    Alcotest.test_case "find_slot hot path + stats" `Quick
      test_find_slot_hot_path;
    Alcotest.test_case "fold/iter/resident" `Quick test_fold_iter_resident;
    Alcotest.test_case "cost model" `Quick test_cost_model;
    QCheck_alcotest.to_alcotest small_model;
    QCheck_alcotest.to_alcotest probe_bound_holds;
    QCheck_alcotest.to_alcotest dense_model;
  ]
