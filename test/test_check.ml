(* Schedule-exploration checker: the engine's pluggable same-instant
   ordering, bounded DFS / seeded random walks over host<->board queue
   scenarios, and deterministic counterexample replay. The headline
   property: a seeded protocol mutation that every FIFO-schedule test
   misses is caught by exploration, and its schedule string replays the
   failure exactly. *)

module Schedule = Osiris_check.Schedule
module Explore = Osiris_check.Explore
module Scenarios = Osiris_check.Scenarios
module Desc_queue = Osiris_board.Desc_queue

(* Bounds are env-tunable (OSIRIS_EXPLORE_DEPTH / OSIRIS_EXPLORE_SEED)
   so CI can pin them and a developer chasing a race can crank them. *)
let env_int name default =
  match Sys.getenv_opt name with
  | Some s when String.trim s <> "" -> int_of_string (String.trim s)
  | _ -> default

let depth = env_int "OSIRIS_EXPLORE_DEPTH" 10
let seed = env_int "OSIRIS_EXPLORE_SEED" 7

let test_schedule_roundtrip () =
  List.iter
    (fun sched ->
      Alcotest.(check (list int))
        (Printf.sprintf "of_string (to_string %s)" (Schedule.to_string sched))
        sched
        (Schedule.of_string (Schedule.to_string sched)))
    [ []; [ 0 ]; [ 0; 2; 1 ]; [ 3; 0; 0; 1 ] ];
  Alcotest.(check string) "empty prints as -" "-" (Schedule.to_string []);
  Alcotest.(check (list int)) "- parses as empty" [] (Schedule.of_string "-");
  List.iter
    (fun bad ->
      match Schedule.of_string bad with
      | exception Failure _ -> ()
      | s ->
          Alcotest.failf "bad schedule %S parsed as %s" bad
            (Schedule.to_string s))
    [ "0.x.1"; "-1"; "0..1" ]

(* The paper's claim, mechanized: under the real discipline the queue
   invariants hold on EVERY explored interleaving, in both directions
   and both locking modes. *)
let test_clean_scenarios_explore_clean () =
  List.iter
    (fun (name, scenario) ->
      match Explore.dfs ~max_depth:depth ~max_runs:512 scenario with
      | Some f, _ ->
          Alcotest.failf "%s: unexpected counterexample %s" name
            (Format.asprintf "%a" Explore.pp_failure f)
      | None, runs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: explored several schedules (%d)" name runs)
            true (runs > 1))
    [
      ("h2b lock-free", Scenarios.host_to_board ());
      ("b2h lock-free", Scenarios.board_to_host ());
      ("h2b spin-lock", Scenarios.host_to_board ~locking:Desc_queue.Spin_lock ());
      ("b2h spin-lock", Scenarios.board_to_host ~locking:Desc_queue.Spin_lock ());
    ]

(* The transport sender/receiver state machines hold their invariants —
   window bounds, byte and transmission conservation, timer discipline —
   on every explored interleaving of data delivery, ack delivery and the
   retransmission timer, through a scripted segment loss and ack loss,
   and every schedule still delivers the stream byte-exact. *)
let test_transport_explores_clean () =
  let scenario = Scenarios.transport () in
  (match Explore.dfs ~max_depth:depth ~max_runs:512 ~max_events:20_000 scenario with
  | Some f, _ ->
      Alcotest.failf "transport DFS: unexpected counterexample %s"
        (Format.asprintf "%a" Explore.pp_failure f)
  | None, runs ->
      Alcotest.(check bool)
        (Printf.sprintf "transport DFS explored several schedules (%d)" runs)
        true (runs > 1));
  match Explore.random_walks ~seed ~runs:64 ~max_events:20_000 scenario with
  | Some f, _ ->
      Alcotest.failf "transport random walks: unexpected counterexample %s"
        (Format.asprintf "%a" Explore.pp_failure f)
  | None, _ -> ()

let torn () =
  Scenarios.host_to_board ~mutation:Desc_queue.Torn_tail_publish ()

(* Why this subsystem exists: the torn tail publication heals by
   quiescence, so a plain engine run with end-of-run checks — the shape
   of every pre-existing test — never sees it... *)
let test_torn_publish_missed_by_quiescence_checks () =
  let eng = Osiris_sim.Engine.create () in
  let checks = (torn ()) eng in
  Osiris_sim.Engine.run ~max_events:10_000 eng;
  Alcotest.(check (list string)) "invariants clean at quiescence" []
    (checks.Explore.check ());
  Alcotest.(check (list string)) "end-of-run checks clean" []
    (checks.Explore.at_end ())

(* ...but bounded DFS catches it at a choice point, and the recorded
   schedule replays the identical failure after a round-trip through its
   string form. *)
let test_torn_publish_caught_and_replayed () =
  match Explore.dfs ~max_depth:depth ~max_runs:2048 (torn ()) with
  | None, runs ->
      Alcotest.failf "DFS missed the torn tail publication (%d runs)" runs
  | Some f, _ -> (
      (match f.Explore.at with
      | `Choice_point _ -> ()
      | `End ->
          Alcotest.fail "expected a choice-point violation, got an end check");
      Alcotest.(check bool) "violations non-empty" true
        (f.Explore.violations <> []);
      let sched =
        Schedule.of_string (Schedule.to_string f.Explore.schedule)
      in
      match Explore.replay (torn ()) sched with
      | None ->
          Alcotest.failf "schedule %s did not replay the failure"
            (Schedule.to_string sched)
      | Some f' ->
          Alcotest.(check (list string)) "same violations on replay"
            f.Explore.violations f'.Explore.violations;
          Alcotest.(check bool) "same location" true
            (f.Explore.at = f'.Explore.at))

(* Random walks find the same bug from a pinned seed, and their recorded
   schedule replays deterministically too. *)
let test_torn_publish_found_by_random_walks () =
  match Explore.random_walks ~seed ~runs:256 (torn ()) with
  | None, runs ->
      Alcotest.failf "random walks missed the torn publication (%d runs)" runs
  | Some f, _ -> (
      match Explore.replay (torn ()) f.Explore.schedule with
      | None -> Alcotest.fail "random-walk counterexample did not replay"
      | Some f' ->
          Alcotest.(check (list string)) "replay matches" f.Explore.violations
            f'.Explore.violations)

(* The unsafe-direction shadow refresh (stale toward "emptier", which the
   paper's argument forbids) is also caught within the bound. *)
let test_eager_shadow_caught () =
  let scenario =
    Scenarios.host_to_board ~mutation:Desc_queue.Eager_shadow_tail ()
  in
  match Explore.dfs ~max_depth:depth ~max_runs:2048 scenario with
  | None, runs ->
      Alcotest.failf "DFS missed the eager shadow refresh (%d runs)" runs
  | Some f, _ ->
      Alcotest.(check bool) "violations non-empty" true
        (f.Explore.violations <> [])

(* Pinned explorer outcomes at depth 10 and seed 7: how many schedules
   the exhaustive DFS enumerates for each clean queue scenario, and the
   counterexample (schedule, location and violations) DFS and the
   random walks return for each seeded mutation. They were recorded
   when both sides of the queue scenarios were fibers; the choice points
   a scenario offers are its engine events, so any change in the events
   either side schedules moves them. *)
let failure_string = function
  | None -> "none"
  | Some f -> Format.asprintf "%a" Explore.pp_failure f

let test_pinned_outcomes () =
  List.iter
    (fun (name, scenario, want) ->
      match Explore.dfs ~max_depth:10 ~max_runs:4096 scenario with
      | Some f, _ ->
          Alcotest.failf "%s: unexpected counterexample %s" name
            (failure_string (Some f))
      | None, runs -> Alcotest.(check int) (name ^ ": DFS runs") want runs)
    [
      ("h2b lock-free", Scenarios.host_to_board (), 1024);
      ("b2h lock-free", Scenarios.board_to_host (), 1024);
      ("h2b spin-lock", Scenarios.host_to_board ~locking:Desc_queue.Spin_lock (), 1024);
      ("b2h spin-lock", Scenarios.board_to_host ~locking:Desc_queue.Spin_lock (), 1024);
    ];
  List.iter
    (fun (name, mutation, want_dfs, want_walk) ->
      let scenario = Scenarios.host_to_board ~mutation () in
      Alcotest.(check string) (name ^ ": DFS counterexample") want_dfs
        (failure_string
           (fst (Explore.dfs ~max_depth:10 ~max_runs:2048 scenario)));
      Alcotest.(check string) (name ^ ": random-walk counterexample") want_walk
        (failure_string (fst (Explore.random_walks ~seed:7 ~runs:256 scenario))))
    [
      ( "torn tail publish",
        Desc_queue.Torn_tail_publish,
        "schedule 0.0 (choice point 2):\n\
         h2b: enq/deq totals (1/0) disagree with occupancy 0\n\
         h2b: slot 0 populated outside [tail,head)",
        "schedule 1.0.0.1 (choice point 4):\n\
         h2b: enq/deq totals (1/0) disagree with occupancy 0\n\
         h2b: slot 0 populated outside [tail,head)" );
      ( "eager shadow tail",
        Desc_queue.Eager_shadow_tail,
        "schedule 0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.\
         0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.\
         0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.\
         0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.\
         0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.\
         0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.\
         0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.\
         0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0 (at end):\n\
         h2b liveness: consumed 3 of 8",
        "schedule 1.0.0.1.0.0.1.0.1.0.0.0.1.0.0.1.1.0.1.1.0.0.1.1.\
         1.0.1.0.1.1.1.0.1.0.0.0.0.0.0.1.0.1.0.1.1.0.1.1.0.1.1.1.\
         1.0.0.1.0.0.0.1.0.1.0.0.0.1.1.0.0.0.0.0.0.1.1.0.0.0.0.1.\
         1.0.0.0.1.1.0.1.1.1.0.0.0.1.1.1.0.1.0.0.0.1.1.1.0.1.1.0.\
         0.0.1.1.0.0.0.0.0.0.1.0.1.1.0.1.0.1.0.1.1.0.1.0.0.0.0.1.\
         0.1.0.0.0.0.0.1.1.1.1.1.0.1.0.1.0.1.0.1.1.1.0.1.1.1.1.0.\
         0.1.0.0.1.0.1.0.0.0.0.0.1.0.0.0.0.0.0.0.0.0.0.1.0.1.1.0.\
         0.0.0.0.0.0.0.0.1.0.0.0.0.0.1.0.1.1.1.0 (at end):\n\
         h2b liveness: consumed 3 of 8" );
    ]

let suite =
  [
    Alcotest.test_case "schedule strings round-trip" `Quick
      test_schedule_roundtrip;
    Alcotest.test_case "pinned explorer outcomes" `Quick test_pinned_outcomes;
    Alcotest.test_case "clean scenarios explore clean" `Quick
      test_clean_scenarios_explore_clean;
    Alcotest.test_case "transport state machine explores clean" `Quick
      test_transport_explores_clean;
    Alcotest.test_case "torn publish: quiescence checks miss it" `Quick
      test_torn_publish_missed_by_quiescence_checks;
    Alcotest.test_case "torn publish: DFS catches it, replay matches" `Quick
      test_torn_publish_caught_and_replayed;
    Alcotest.test_case "torn publish: random walks find it" `Quick
      test_torn_publish_found_by_random_walks;
    Alcotest.test_case "eager shadow refresh caught" `Quick
      test_eager_shadow_caught;
  ]
