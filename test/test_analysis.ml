(* olint: policy parsing and each rule firing on the committed fixture
   library under fixtures/olint/typed, checked under the committed
   fixture.policy. The fixtures are linked into this test binary, so
   their .cmt artifacts exist under the build tree by the time we run.
   `dune build @olint` additionally runs the real binary over both the
   clean tree (expects exit 0) and these fixtures (expects exit 1). *)

module Policy = Osiris_analysis.Policy
module Typed = Osiris_analysis.Typed

(* `dune runtest` runs with cwd = _build/default/test (fixtures copied in
   via the test deps); `dune exec test/test_main.exe` runs from the repo
   root. Resolve against either. *)
let in_test_dir = Sys.file_exists "fixtures/olint"

let fixture_root =
  if in_test_dir then "fixtures/olint/typed" else "test/fixtures/olint/typed"

let cmt_root = if in_test_dir then "." else "_build/default"

(* The committed policy's text, so a test can extend it. *)
let policy_text =
  In_channel.with_open_bin
    (Filename.concat fixture_root "fixture.policy")
    In_channel.input_all

let policy = Policy.of_string policy_text

(* Every violation of the corpus under the committed policy. *)
let fixture_vs = lazy (Typed.check_tree policy ~cmt_root)

let in_file name vs =
  List.filter (fun v -> Filename.basename v.Typed.file = name) vs

let of_rule r vs = List.filter (fun v -> v.Typed.rule = r) vs

let rule_lines vs =
  List.sort compare (List.map (fun v -> (v.Typed.rule, v.Typed.line)) vs)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let test_policy_parsing () =
  Alcotest.(check (list string)) "scan" [ "test/fixtures/olint/typed" ]
    policy.Policy.scan;
  Alcotest.(check (option (list string))) "owned field"
    (Some [ "lib/board/desc_queue.ml" ])
    (Policy.owners policy "head");
  Alcotest.(check (option (list string))) "shared field -> accessors"
    (Some [ "lib/board/board.ml" ])
    (Policy.owners
       (Policy.of_string "shared irq_filter\naccessor lib/board/board.ml\n")
       "irq_filter");
  Alcotest.(check (option (list string))) "undeclared field" None
    (Policy.owners policy "slots_foo");
  Alcotest.(check bool) "path match from any cwd" true
    (Policy.path_matches "lib/board/desc_queue.ml"
       "/root/repo/lib/board/desc_queue.ml");
  Alcotest.(check bool) "suffix must be whole components" false
    (Policy.path_matches "board/desc_queue.ml" "lib/board/not_desc_queue.ml");
  (match Policy.of_string "shared a\nown head\n" with
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the line (%s)" msg)
        true
        (contains ~affix:"line 2" msg)
  | _ -> Alcotest.fail "malformed 'own' accepted");
  match Policy.of_string "frobnicate lib\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown directive accepted"

(* Each rule fixture's exact set; a fixture without a .mli is also R4's
   (line 1). *)
let fixture_rules name = rule_lines (in_file name (Lazy.force fixture_vs))

let test_r1_foreign_writer () =
  Alcotest.(check (list (pair string int)))
    "the write, and the missing .mli"
    [ ("R1", 5); ("R4", 1) ]
    (fixture_rules "r1_bad_owner.ml");
  match of_rule "R1" (in_file "r1_bad_owner.ml" (Lazy.force fixture_vs)) with
  | [ v ] ->
      Alcotest.(check bool) "message names the field" true
        (contains ~affix:"head" v.Typed.message)
  | vs -> Alcotest.failf "expected exactly one R1, got %d" (List.length vs)

(* The direct reference, the alias [module O = Obj] and a call through
   it. *)
let test_r2_obj () =
  Alcotest.(check (list (pair string int)))
    "R2 set"
    [ ("R2", 2); ("R2", 3); ("R2", 4); ("R4", 1) ]
    (fixture_rules "r2_obj.ml")

let test_r3_catchall_and_exit () =
  Alcotest.(check (list (pair string int)))
    "both R3 forms"
    [ ("R3", 3); ("R3", 4); ("R4", 1) ]
    (fixture_rules "r3_catchall.ml")

let test_r3_allow_exemptions () =
  let file = "test/fixtures/olint/typed/r3_catchall.ml" in
  let exempt =
    Policy.of_string
      (Printf.sprintf
         "%s\nallow catchall %s # test fixture\nallow exit %s # test fixture\n"
         policy_text file file)
  in
  let vs = Typed.check_tree exempt ~cmt_root in
  Alcotest.(check (list (pair string int)))
    "exempted file keeps only R4" [ ("R4", 1) ]
    (rule_lines (in_file "r3_catchall.ml" vs));
  Alcotest.(check (list (pair string int)))
    "another file's exit still fires" [ ("R3", 9) ]
    (rule_lines (of_rule "R3" (in_file "r8_min_max.ml" vs)))

(* Exemption-shaped directives must carry a '# why' comment, and allow
   keys are a closed set — a typo'd rule name must not silently grant
   nothing (or everything). *)
let test_exemptions_need_justification () =
  let rejects ~what s =
    match Policy.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects ~what:"unjustified allow" "allow catchall lib/foo.ml\n";
  rejects ~what:"unknown allow key" "allow catchnone lib/foo.ml # why\n";
  rejects ~what:"unjustified alloc-free" "alloc-free Float.min\n";
  rejects ~what:"unjustified uncovered" "uncovered switch.marked\n";
  let ok =
    Policy.of_string
      "allow catchall lib/foo.ml # fixture\n\
       alloc-free Float.min # compare/select\n\
       uncovered x.y # telemetry\n"
  in
  Alcotest.(check (list string)) "alloc-free parsed" [ "Float.min" ]
    ok.Policy.alloc_free;
  Alcotest.(check bool) "uncovered parsed" true (Policy.uncovered_ok ok "x.y")

let test_hot_directive () =
  let p =
    Policy.of_string "hot lib/sim/engine.ml:push\nhot lib/atm/sar.ml:push\n"
  in
  Alcotest.(check (list (pair string string)))
    "hot entries"
    [ ("lib/sim/engine.ml", "push"); ("lib/atm/sar.ml", "push") ]
    p.Policy.hot;
  match Policy.of_string "hot lib/sim/engine.ml\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "hot without :function accepted"

(* The orphan, and every other fixture without a .mli; the fixtures that
   ship one and dune's generated library wrapper are not flagged. *)
let test_r4_missing_mli () =
  Alcotest.(check (list (pair string int)))
    "the orphan" [ ("R4", 1) ] (fixture_rules "r4_orphan.ml");
  Alcotest.(check (list string))
    "R4 files"
    [
      "r1_bad_owner.ml"; "r1_classify_fields.ml"; "r1_engine_queue_fields.ml";
      "r1_lb_fields.ml"; "r1_switch_fields.ml"; "r2_obj.ml"; "r3_catchall.ml";
      "r4_orphan.ml"; "r8_min_max.ml";
    ]
    (List.map
       (fun v -> Filename.basename v.Typed.file)
       (of_rule "R4" (Lazy.force fixture_vs)))

(* The exact set: two bare calls on line 3, one qualified on line 4 and
   one through [module S = Stdlib] on line 8; [S.exit] on line 9 is
   R3's. The Int forms, the written-out float compare and the local
   [min] called on line 11 pass. *)
let test_r8_min_max () =
  Alcotest.(check (list (pair string int)))
    "R8 set"
    [ ("R3", 9); ("R4", 1); ("R8", 3); ("R8", 3); ("R8", 4); ("R8", 8) ]
    (fixture_rules "r8_min_max.ml");
  Alcotest.(check bool) "message names the replacement" true
    (List.for_all
       (fun v -> contains ~affix:"use Int." v.Typed.message)
       (of_rule "R8" (in_file "r8_min_max.ml" (Lazy.force fixture_vs))))

(* The whole corpus through the same entry point the binary uses: every
   rule represented, results sorted by file. *)
let test_check_tree_over_fixtures () =
  let vs = Lazy.force fixture_vs in
  let count r = List.length (of_rule r vs) in
  Alcotest.(check int) "R1 per foreign write, and the two stale entries" 15
    (count "R1");
  Alcotest.(check int) "three R2" 3 (count "R2");
  Alcotest.(check int) "three R3" 3 (count "R3");
  Alcotest.(check int) "R4 for every .mli-less fixture .ml" 9 (count "R4");
  Alcotest.(check int) "four R8" 4 (count "R8");
  let files = List.map (fun v -> v.Typed.file) vs in
  Alcotest.(check (list string)) "sorted by file" (List.sort compare files)
    files;
  (* The grep-able one-line form carries file, line and rule. *)
  let printed =
    Format.asprintf "%a" Typed.pp_violation
      (List.hd (of_rule "R1" (in_file "r1_bad_owner.ml" vs)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "pp form (%s)" printed)
    true
    (contains ~affix:"r1_bad_owner.ml:5: [R1]" printed)

let test_typed_fixtures () =
  let vs = Lazy.force fixture_vs in
  Alcotest.(check int) "four R5" 4 (List.length (of_rule "R5" vs));
  Alcotest.(check int) "two R6" 2 (List.length (of_rule "R6" vs));
  (* the unread counter, and the stale [uncovered] entry *)
  Alcotest.(check int) "two R7" 2 (List.length (of_rule "R7" vs));
  let in_file name = in_file name vs in
  (match in_file "r5_alloc.ml" with
  | [ v ] ->
      Alcotest.(check bool) "direct allocation flagged" true
        (contains ~affix:"tuple construction" v.Typed.message)
  | vs -> Alcotest.failf "r5_alloc: expected 1 violation, got %d"
            (List.length vs));
  (match in_file "r5_transitive.ml" with
  | [ v ] ->
      Alcotest.(check bool) "reported in the callee" true
        (contains ~affix:"boxit" v.Typed.message);
      Alcotest.(check bool) "names the hot root" true
        (contains ~affix:"hot via" v.Typed.message)
  | vs -> Alcotest.failf "r5_transitive: expected 1 violation, got %d"
            (List.length vs));
  (match in_file "r5_classify.ml" with
  | [ v ] ->
      Alcotest.(check bool) "boxed lookup result flagged" true
        (contains ~affix:"Some" v.Typed.message)
  | vs -> Alcotest.failf "r5_classify: expected 1 violation, got %d"
            (List.length vs));
  (match in_file "r5_hatch.ml" with
  | [ v ] ->
      (* the justified box is accepted; only the bare attribute fires *)
      Alcotest.(check bool) "bare escape hatch flagged" true
        (contains ~affix:"justification" v.Typed.message)
  | vs -> Alcotest.failf "r5_hatch: expected 1 violation, got %d"
            (List.length vs));
  Alcotest.(check (list (pair string int)))
    "R6: the direct read and the read through open Unix"
    [ ("R6", 4); ("R6", 8) ]
    (List.map (fun v -> (v.Typed.rule, v.Typed.line)) (in_file "r6_mix.ml"));
  List.iter
    (fun v ->
      Alcotest.(check bool) "names the function" true
        (contains ~affix:"Unix.gettimeofday" v.Typed.message))
    (in_file "r6_mix.ml");
  match in_file "r7_counter.ml" with
  | [ v ] ->
      Alcotest.(check string) "rule" "R7" v.Typed.rule;
      Alcotest.(check bool) "names the counter" true
        (contains ~affix:"fixture.lost_cells" v.Typed.message)
  | vs ->
      Alcotest.failf "r7_counter: expected 1 violation, got %d"
        (List.length vs)

(* R9 over the fixture library: the exact set of exports without a
   caller elsewhere and of optional parameters no call passes. The
   R5-R7 fixtures' own exports are in it too, since nothing calls them. *)
let test_r9_fixtures () =
  let brief v =
    let m = v.Typed.message in
    let kind =
      if contains ~affix:"referenced nowhere" m then "nowhere"
      else if contains ~affix:"own module" m then "own"
      else "unpassed"
    in
    Printf.sprintf "%s:%d %s %s"
      (Filename.basename v.Typed.file)
      v.Typed.line kind
      (String.sub m 1 (String.index_from m 1 '\'' - 1))
  in
  Alcotest.(check (list string))
    "R9 set"
    [
      "r5_alloc.mli:1 nowhere R5_alloc.tick";
      "r5_classify.mli:1 nowhere R5_classify.lookup";
      "r5_hatch.mli:1 nowhere R5_hatch.tick";
      "r5_transitive.mli:1 own R5_transitive.boxit";
      "r5_transitive.mli:2 nowhere R5_transitive.tick";
      "r6_mix.mli:1 nowhere R6_mix.stamp";
      "r6_mix.mli:2 nowhere R6_mix.stamp_opened";
      "r7_counter.mli:1 nowhere R7_counter.make";
      "r7_counter.mli:2 nowhere R7_counter.bump";
      "r9_lib.mli:2 own R9_lib.own_only";
      "r9_lib.mli:3 unpassed R9_lib.knob ?offset";
      "r9_user.mli:1 nowhere R9_user.unused";
      "r9_user.mli:1 unpassed R9_user.unused ?bias";
    ]
    (List.filter_map
       (fun v -> if v.Typed.rule = "R9" then Some (brief v) else None)
       (Lazy.force fixture_vs))

(* R10 over the fixture library: the exact set of exported record labels
   that no unit reads, and of exported mutable labels that no unit
   assigns. *)
let test_r10_fixtures () =
  let brief v =
    let m = v.Typed.message in
    Printf.sprintf "%s:%d %s %s"
      (Filename.basename v.Typed.file)
      v.Typed.line
      (if contains ~affix:"read by no unit" m then "unread" else "unassigned")
      (String.sub m 1 (String.index_from m 1 '\'' - 1))
  in
  Alcotest.(check (list string))
    "R10 set"
    [
      "r10_lib.mli:6 unread R10_lib.t.with_only";
      "r10_lib.mli:7 unread R10_lib.t.eq_only";
      "r10_lib.mli:8 unread R10_lib.t.unread";
      "r10_lib.mli:10 unassigned R10_lib.t.never_set";
    ]
    (List.filter_map
       (fun v -> if v.Typed.rule = "R10" then Some (brief v) else None)
       (Lazy.force fixture_vs))

(* The stale-policy rot guard: a hot entry pointing at a function that
   no longer exists must itself be a violation, not a silent no-op. *)
let test_typed_stale_hot_entry () =
  let p =
    Policy.of_string
      "scan test/fixtures/olint/typed\n\
       hot test/fixtures/olint/typed/r5_alloc.ml:gone\n\
       hot test/fixtures/olint/typed/no_such_file.ml:tick\n"
  in
  let vs =
    List.filter (fun v -> v.Typed.rule = "R5") (Typed.check_tree p ~cmt_root)
  in
  Alcotest.(check int) "both stale entries flagged" 2 (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check string) "rule" "R5" v.Typed.rule;
      Alcotest.(check bool) "message says stale" true
        (contains ~affix:"hot entry" v.Typed.message))
    vs

(* The same guard for the other entry kinds: an [own] or [shared] entry
   whose field no scanned record declares (R1), and an [uncovered] entry
   that matches no registered counter (R7). The fixture policy seeds
   one of each. *)
let test_stale_policy_entries () =
  let stale rule vs =
    List.filter_map
      (fun v ->
        if
          v.Typed.rule = rule
          && contains ~affix:"stale policy entry" v.Typed.message
        then Some v.Typed.message
        else None)
      vs
  in
  let names_each what msgs affixes =
    Alcotest.(check int) (what ^ " count") (List.length affixes)
      (List.length msgs);
    List.iter
      (fun affix ->
        Alcotest.(check bool) (what ^ " names " ^ affix) true
          (List.exists (contains ~affix) msgs))
      affixes
  in
  names_each "R1"
    (stale "R1" (Lazy.force fixture_vs))
    [ "own entry 'retired_field'"; "shared entry 'retired_shared'" ];
  names_each "R7"
    (stale "R7" (Lazy.force fixture_vs))
    [ "uncovered entry 'fixture.retired_cells'" ]

let suite =
  [
    Alcotest.test_case "policy parses and answers queries" `Quick
      test_policy_parsing;
    Alcotest.test_case "R1: foreign writer of an owned field" `Quick
      test_r1_foreign_writer;
    Alcotest.test_case "R2: Obj reference" `Quick test_r2_obj;
    Alcotest.test_case "R3: catch-all and exit" `Quick
      test_r3_catchall_and_exit;
    Alcotest.test_case "R3: allow-listed file is exempt" `Quick
      test_r3_allow_exemptions;
    Alcotest.test_case "exemptions need justification; allow keys closed"
      `Quick test_exemptions_need_justification;
    Alcotest.test_case "hot directive parses and answers is_hot" `Quick
      test_hot_directive;
    Alcotest.test_case "R4: missing .mli" `Quick test_r4_missing_mli;
    Alcotest.test_case "check_tree covers every rule, sorted" `Quick
      test_check_tree_over_fixtures;
    Alcotest.test_case "R5/R6/R7: typed passes catch the seeded fixtures"
      `Quick test_typed_fixtures;
    Alcotest.test_case "R5: stale hot entries are violations" `Quick
      test_typed_stale_hot_entry;
    Alcotest.test_case "R1/R7: stale own, shared and uncovered entries"
      `Quick test_stale_policy_entries;
    Alcotest.test_case "R9: exports without callers, unpassed options"
      `Quick test_r9_fixtures;
    Alcotest.test_case "R10: exported labels unread or never assigned"
      `Quick test_r10_fixtures;
    Alcotest.test_case "R8: Stdlib min/max" `Quick test_r8_min_max;
  ]
