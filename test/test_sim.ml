(* Tests for the discrete-event engine and its process layer. *)

open Osiris_sim

let check = Alcotest.(check int)

let test_engine_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule eng ~delay:30 (record 3));
  ignore (Engine.schedule eng ~delay:10 (record 1));
  ignore (Engine.schedule eng ~delay:20 (record 2));
  Engine.run eng;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  check "clock at last event" 30 (Engine.now eng)

let test_engine_fifo_same_time () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~delay:7 (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "same-instant FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~delay:5 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run eng;
  Alcotest.(check bool) "cancelled event silent" false !fired

let test_engine_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule eng ~delay:10 tick)
  in
  ignore (Engine.schedule eng ~delay:10 tick);
  Engine.run ~until:100 eng;
  check "bounded run" 10 !count;
  check "clock clamped to horizon" 100 (Engine.now eng)

let test_engine_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.schedule eng ~delay:1 (fun () ->
           incr count;
           if !count = 3 then Engine.stop eng))
  done;
  Engine.run eng;
  check "stopped after third" 3 !count

let test_schedule_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:10 (fun () -> ()));
  ignore (Engine.step eng);
  Alcotest.check_raises "past time" (Invalid_argument
    "Engine.schedule_at: time 5 is in the past (now 10)")
    (fun () -> ignore (Engine.schedule_at eng ~time:5 (fun () -> ())))

let test_process_sleep () =
  let eng = Engine.create () in
  let log = ref [] in
  Process.spawn eng ~name:"p" (fun () ->
      log := Engine.now eng :: !log;
      Process.sleep eng 100;
      log := Engine.now eng :: !log;
      Process.sleep eng 50;
      log := Engine.now eng :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "sleep advances time" [ 0; 100; 150 ]
    (List.rev !log)

let test_process_exception_named () =
  let eng = Engine.create () in
  Process.spawn eng ~name:"boom" (fun () -> failwith "bang");
  Alcotest.check_raises "process failure surfaces"
    (Process.Process_failure ("boom", Failure "bang"))
    (fun () -> Engine.run eng)

let test_not_in_process () =
  let eng = Engine.create () in
  Alcotest.check_raises "sleep outside process" Process.Not_in_process
    (fun () -> Process.sleep eng 5)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng () in
  let got = ref [] in
  Process.spawn eng ~name:"rx" (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Process.spawn eng ~name:"tx" (fun () ->
      List.iter (fun v -> Mailbox.send mb v) [ 1; 2; 3 ]);
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_capacity_blocks () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng ~capacity:2 () in
  let sent = ref 0 in
  Process.spawn eng ~name:"tx" (fun () ->
      for i = 1 to 4 do
        Mailbox.send mb i;
        sent := i
      done);
  Process.spawn eng ~name:"rx" (fun () ->
      Process.sleep eng 100;
      ignore (Mailbox.recv mb);
      Process.sleep eng 100;
      ignore (Mailbox.recv mb));
  Engine.run ~until:50 eng;
  check "sender blocked at capacity" 2 !sent;
  Engine.run ~until:250 eng;
  check "sender progressed per receive" 4 !sent

let test_mailbox_try_ops () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng ~capacity:1 () in
  Alcotest.(check bool) "send into empty" true (Mailbox.try_send mb 1);
  Alcotest.(check bool) "send into full" false (Mailbox.try_send mb 2);
  Alcotest.(check (option int)) "recv" (Some 1) (Mailbox.try_recv mb);
  Alcotest.(check (option int)) "recv empty" None (Mailbox.try_recv mb)

let test_resource_mutual_exclusion () =
  let eng = Engine.create () in
  let res = Resource.create eng ~capacity:1 in
  let active = ref 0 and max_active = ref 0 in
  for _ = 1 to 5 do
    Process.spawn eng ~name:"u" (fun () ->
        Resource.acquire res;
        incr active;
        if !active > !max_active then max_active := !active;
        Process.sleep eng 10;
        decr active;
        Resource.release res)
  done;
  Engine.run eng;
  check "never concurrent" 1 !max_active;
  check "all served, serialized" 50 (Engine.now eng)

let test_resource_priority () =
  let eng = Engine.create () in
  let res = Resource.create eng ~capacity:1 in
  let order = ref [] in
  Process.spawn eng ~name:"holder" (fun () ->
      Resource.acquire res;
      Process.sleep eng 100;
      Resource.release res);
  Process.spawn eng ~name:"low" (fun () ->
      Process.sleep eng 1;
      Resource.acquire ~priority:10 res;
      order := "low" :: !order;
      Resource.release res);
  Process.spawn eng ~name:"high" (fun () ->
      Process.sleep eng 2;
      Resource.acquire ~priority:0 res;
      order := "high" :: !order;
      Resource.release res);
  Engine.run eng;
  Alcotest.(check (list string)) "priority served first" [ "high"; "low" ]
    (List.rev !order)

let test_resource_utilization () =
  let eng = Engine.create () in
  let res = Resource.create eng ~capacity:1 in
  Process.spawn eng ~name:"u" (fun () ->
      Resource.use res ~duration:40;
      Process.sleep eng 60;
      Resource.use res ~duration:20);
  Engine.run eng;
  let st = Resource.stats res in
  check "busy time" 60 st.Resource.busy_time;
  check "acquisitions" 2 st.Resource.acquisitions

let test_signal_broadcast () =
  let eng = Engine.create () in
  let s = Signal.create eng in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Process.spawn eng ~name:"w" (fun () ->
        Signal.wait s;
        incr woken)
  done;
  Process.spawn eng ~name:"b" (fun () ->
      Process.sleep eng 10;
      Signal.broadcast s);
  Engine.run eng;
  check "all woken" 3 !woken

let test_determinism () =
  let run () =
    let eng = Engine.create () in
    let trace = Buffer.create 64 in
    let mb = Mailbox.create eng ~capacity:3 () in
    for p = 1 to 3 do
      Process.spawn eng ~name:"p" (fun () ->
          for i = 1 to 5 do
            Mailbox.send mb ((p * 10) + i);
            Process.sleep eng p
          done)
    done;
    Process.spawn eng ~name:"c" (fun () ->
        for _ = 1 to 15 do
          Buffer.add_string trace (string_of_int (Mailbox.recv mb));
          Buffer.add_char trace ' ';
          Process.sleep eng 2
        done);
    Engine.run eng;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Engine clock/accounting regressions (each failed before the fix).  *)

let test_until_advances_when_drained () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:10 (fun () -> ()));
  Engine.run ~until:100 eng;
  check "clock reaches the horizon after the queue drains" 100
    (Engine.now eng);
  (* And repeated bounded runs over an empty queue stay monotonic. *)
  Engine.run ~until:200 eng;
  check "second bounded run" 200 (Engine.now eng)

let test_max_events_counts_live_only () =
  let eng = Engine.create () in
  let fired = ref [] in
  let hs =
    List.init 6 (fun i ->
        Engine.schedule eng ~delay:(10 * (i + 1)) (fun () ->
            fired := i :: !fired))
  in
  (* Cancel events 0, 2 and 4: a budget of 2 must still buy two live
     dispatches, not be eaten by popped corpses. *)
  List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel h) hs;
  Engine.run ~max_events:2 eng;
  Alcotest.(check (list int)) "budget buys two live dispatches" [ 1; 3 ]
    (List.rev !fired);
  check "live dispatch counter" 2 (Engine.events_dispatched eng);
  Engine.run eng;
  Alcotest.(check (list int)) "remaining live event runs" [ 1; 3; 5 ]
    (List.rev !fired)

let test_until_budget_does_not_skip_pending () =
  let eng = Engine.create () in
  let times = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.schedule eng ~delay:(10 * i) (fun () ->
           times := Engine.now eng :: !times))
  done;
  (* The budget stops the run with events still pending inside the
     horizon: the clock must hold at the last dispatch, not jump to the
     horizon and then run backwards when those events fire later. *)
  Engine.run ~until:100 ~max_events:1 eng;
  check "clock holds with pending events inside the horizon" 10
    (Engine.now eng);
  Engine.run ~until:100 eng;
  Alcotest.(check (list int)) "later events fire at their own times"
    [ 10; 20; 30 ] (List.rev !times);
  check "horizon reached once the queue is clear" 100 (Engine.now eng)

let test_reschedule_periodic () =
  let eng = Engine.create () in
  let n = ref 0 in
  let h = ref None in
  let fire () =
    incr n;
    if !n < 5 then Engine.reschedule eng ~delay:10 (Option.get !h)
  in
  h := Some (Engine.schedule eng ~delay:10 fire);
  Engine.run eng;
  check "periodic timer fires via one reused handle" 5 !n;
  check "clock tracks the period" 50 (Engine.now eng)

let test_reschedule_queued_rejected () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~delay:10 (fun () -> ()) in
  Alcotest.check_raises "still queued"
    (Invalid_argument "Engine.reschedule_at: handle is still queued")
    (fun () -> Engine.reschedule eng ~delay:5 h)

let test_reschedule_after_cancel () =
  let eng = Engine.create () in
  let fired = ref 0 in
  let h = Engine.schedule eng ~delay:5 (fun () -> incr fired) in
  Engine.cancel h;
  Engine.run eng;
  check "cancelled" 0 !fired;
  Engine.reschedule eng ~delay:5 h;
  Engine.run eng;
  check "re-armed handle is live again" 1 !fired

(* ------------------------------------------------------------------ *)
(* Space-leak regressions: popped entries must not pin their values.  *)

(* Build outside the caller's frame so no stack root keeps [v] alive. *)
let[@inline never] weak_after_pop add_pop =
  let v = Bytes.make 64 'x' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  add_pop v;
  w

let test_heap_releases_popped_values () =
  let h = Heap.create () in
  let w =
    weak_after_pop (fun v ->
        Heap.add h ~key:1 ~seq:0 v;
        match Heap.pop_min h with
        | Some (1, 0, _) -> ()
        | _ -> Alcotest.fail "heap pop mismatch")
  in
  Gc.full_major ();
  Alcotest.(check bool) "popped heap value collected (heap still alive)"
    true
    (Weak.get w 0 = None)

let test_wheel_releases_popped_values () =
  let wh = Wheel.create ~dummy:Bytes.empty in
  let w =
    weak_after_pop (fun v ->
        Wheel.add wh ~key:1 ~seq:0 v;
        match Wheel.pop_min wh with
        | Some (1, 0, _) -> ()
        | _ -> Alcotest.fail "wheel pop mismatch")
  in
  Gc.full_major ();
  Alcotest.(check bool) "popped wheel value collected (wheel still alive)"
    true
    (Weak.get w 0 = None)

(* ------------------------------------------------------------------ *)
(* Timer wheel unit behaviour. *)

let test_wheel_cascade () =
  let wh = Wheel.create ~dummy:(-1) in
  (* Keys spanning many levels, including same-key FIFO runs. *)
  let keys = [ 0; 5; 5; 31; 32; 1_000; 33_554_432; 1_000_000_000; 7 ] in
  List.iteri (fun seq k -> Wheel.add wh ~key:k ~seq seq) keys;
  Alcotest.(check (option int)) "peek" (Some 0) (Wheel.peek_key wh);
  let popped = ref [] in
  let rec drain () =
    match Wheel.pop_min wh with
    | None -> ()
    | Some (k, s, v) ->
        Alcotest.(check int) "value is its own seq" s v;
        popped := (k, s) :: !popped;
        drain ()
  in
  drain ();
  Alcotest.(check (list (pair int int)))
    "keys ascend, ties in seq order"
    [ (0, 0); (5, 1); (5, 2); (7, 8); (31, 3); (32, 4); (1_000, 5);
      (33_554_432, 6); (1_000_000_000, 7) ]
    (List.rev !popped)

let test_wheel_floor_rejects_past () =
  let wh = Wheel.create ~dummy:0 in
  Wheel.add wh ~key:100 ~seq:0 0;
  ignore (Wheel.pop_min wh);
  check "floor follows pops" 100 (Wheel.floor wh);
  Alcotest.check_raises "below the floor"
    (Invalid_argument "Wheel.add: key 99 below the pop floor 100")
    (fun () -> Wheel.add wh ~key:99 ~seq:1 0)

(* ------------------------------------------------------------------ *)
(* Scheduler vs naive model: random add/pop sequences against a sorted
   association list, identical for both backends. *)

let scheduler_model_prop name add pop peek fresh =
  QCheck.Test.make ~name ~count:200
    QCheck.(list (pair (int_bound 4) (int_bound 1000)))
    (fun ops ->
      let q = fresh () in
      let model = ref [] in
      let seq = ref 0 and floor = ref 0 in
      let fail = ref None in
      let insert e l =
        let le (k, s) (k', s') = k < k' || (k = k' && s <= s') in
        let rec go = function
          | [] -> [ e ]
          | x :: tl -> if le x e then x :: go tl else e :: x :: tl
        in
        go l
      in
      List.iter
        (fun (op, d) ->
          (if op = 0 then
             match (pop q, !model) with
             | Some (k, s, ()), (mk, ms) :: tl when k = mk && s = ms ->
                 model := tl;
                 floor := max !floor k
             | None, [] -> ()
             | _ -> fail := Some "pop diverged from model"
           else begin
             let key = !floor + d in
             add q ~key ~seq:!seq ();
             model := insert (key, !seq) !model;
             incr seq
           end);
          let want = match !model with [] -> None | (k, _) :: _ -> Some k in
          if peek q <> want then fail := Some "peek diverged from model")
        ops;
      let rec drain () =
        match (pop q, !model) with
        | None, [] -> ()
        | Some (k, s, ()), (mk, ms) :: tl when k = mk && s = ms ->
            model := tl;
            drain ()
        | _ -> fail := Some "drain diverged from model"
      in
      drain ();
      match !fail with None -> true | Some m -> QCheck.Test.fail_report m)

let wheel_model_prop =
  scheduler_model_prop "wheel matches sorted-list model"
    (fun q ~key ~seq v -> Wheel.add q ~key ~seq v)
    Wheel.pop_min Wheel.peek_key
    (fun () -> Wheel.create ~dummy:())

let heap_model_prop =
  scheduler_model_prop "heap matches sorted-list model"
    (fun q ~key ~seq v -> Heap.add q ~key ~seq v)
    Heap.pop_min Heap.peek_key
    (fun () -> Heap.create ())

(* ------------------------------------------------------------------ *)
(* Differential dispatch order: the same seeded workload must dispatch
   event for event identically on both backends. The workload draws its
   delays, cancellations and fan-out from an RNG consumed inside the
   callbacks, so the streams only stay aligned if every dispatch (and
   every bounded-run clock adjustment) matches exactly. *)

let dispatch_trace ?chooser backend =
  let eng = Engine.create ~backend () in
  (match chooser with
  | None -> ()
  | Some seed ->
      let crng = Osiris_util.Rng.create ~seed in
      Engine.set_chooser eng
        (Some (fun ~now:_ ~count -> Osiris_util.Rng.int crng count)));
  let rng = Osiris_util.Rng.create ~seed:42 in
  let buf = Buffer.create 4096 in
  let count = ref 0 in
  let cancellable = ref [] in
  let rec spawn_event () =
    if !count < 2500 then begin
      incr count;
      let id = !count in
      let d =
        match Osiris_util.Rng.int rng 5 with
        | 0 | 1 -> 0
        | 2 -> Osiris_util.Rng.int rng 50
        | 3 -> Osiris_util.Rng.int rng 5_000
        | _ -> Osiris_util.Rng.int rng 500_000
      in
      let h =
        Engine.schedule eng ~delay:d (fun () ->
            Buffer.add_string buf
              (Printf.sprintf "%d@%d;" id (Engine.now eng));
            if Osiris_util.Rng.int rng 3 > 0 then spawn_event ();
            if Osiris_util.Rng.int rng 4 = 0 then spawn_event ())
      in
      if Osiris_util.Rng.int rng 5 = 0 then
        cancellable := h :: !cancellable;
      if Osiris_util.Rng.int rng 7 = 0 then
        match !cancellable with
        | h :: tl ->
            Engine.cancel h;
            cancellable := tl
        | [] -> ()
    end
  in
  for _ = 1 to 40 do
    spawn_event ()
  done;
  (* Mixed bounded and budgeted segments exercise the clock-adjustment
     paths, then an unbounded run drains the rest. *)
  Engine.run ~until:200_000 eng;
  Buffer.add_string buf (Printf.sprintf "|u:%d|" (Engine.now eng));
  Engine.run ~max_events:500 eng;
  Buffer.add_string buf (Printf.sprintf "|m:%d|" (Engine.now eng));
  Engine.run eng;
  Buffer.add_string buf
    (Printf.sprintf "|end:%d disp:%d|" (Engine.now eng)
       (Engine.events_dispatched eng));
  Buffer.contents buf

let test_differential_dispatch () =
  Alcotest.(check string) "wheel and heap dispatch identically"
    (dispatch_trace Engine.Binary_heap)
    (dispatch_trace Engine.Timer_wheel)

let test_differential_dispatch_chooser () =
  Alcotest.(check string)
    "wheel and heap agree under a randomized chooser"
    (dispatch_trace ~chooser:11 Engine.Binary_heap)
    (dispatch_trace ~chooser:11 Engine.Timer_wheel)

(* ------------------------------------------------------------------ *)
(* Process-level differential oracle. [Process.sleep] wakes a sleeper
   with one engine event or none; the reference below always pays two,
   a timer and then [suspend]'s zero-delay resume hop: sleep written
   out, kept only here. A seeded scenario of processes and plain
   callbacks runs once with each sleep, and every resume logs (id,
   time). The scenario draws from its RNG inside the callbacks, so one
   reordered dispatch derails the whole log. *)

let reference_sleep eng d =
  Process.suspend eng (fun resume ->
      ignore (Engine.schedule eng ~delay:d (fun () -> resume ())))

type drive =
  | Unbounded  (** [run] until drained; stops end a run early *)
  | Slices  (** [run ~until] slices of 1 ns to 1 ms *)
  | Budgets  (** [run ~max_events] with small budgets *)
  | Sliced_budgets  (** both bounds at once *)
  | Chooser  (** a seeded same-instant chooser, which disables skipping *)

let drive_name = function
  | Unbounded -> "unbounded"
  | Slices -> "until slices"
  | Budgets -> "max_events budgets"
  | Sliced_budgets -> "sliced budgets"
  | Chooser -> "chooser"

let process_log ~reference ~drive backend =
  let eng = Engine.create ~backend () in
  let rng = Osiris_util.Rng.create ~seed:2024 in
  let int n = Osiris_util.Rng.int rng n in
  let sleep = if reference then reference_sleep else Process.sleep in
  let log = Buffer.create 16384 in
  let note id =
    Buffer.add_string log (Printf.sprintf "%d@%d;" id (Engine.now eng))
  in
  let delay () =
    match int 4 with
    | 0 -> 0
    | 1 -> 1 + int 50
    | 2 -> Time.us (1 + int 50)
    | _ -> Time.ms (1 + int 2)
  in
  let signals = Array.init 2 (fun _ -> Signal.create eng) in
  let mb = Mailbox.create eng ~capacity:2 () in
  let res = Resource.create eng ~capacity:2 in
  (* [Resource.use] is acquire, the real sleep, release. *)
  let use d =
    if reference then begin
      Resource.acquire res;
      sleep eng d;
      Resource.release res
    end
    else Resource.use res ~duration:d
  in
  let next_id = ref 0 in
  let rec proc ~steps =
    incr next_id;
    let id = !next_id in
    Process.spawn eng ~name:(string_of_int id) (fun () ->
        note id;
        for _ = 1 to steps do
          (match int 12 with
          | 0 | 1 | 2 | 3 -> sleep eng (delay ())
          | 4 -> Signal.wait signals.(int 2)
          | 5 -> Signal.broadcast signals.(int 2)
          | 6 -> Mailbox.send mb id
          | 7 -> ignore (Mailbox.recv mb)
          | 8 -> use (delay ())
          | 9 -> if !next_id < 40 then proc ~steps:(2 + int 6)
          | 10 ->
              (* A stop pending at the sleep: the run must end before
                 the sleeper moves on. *)
              Engine.stop eng;
              sleep eng (int 3)
          | _ -> sleep eng 0);
          note id
        done)
  in
  for _ = 1 to 20 do
    proc ~steps:(10 + int 20)
  done;
  (* Plain callbacks: a ticker that re-arms its own handle, unblocks the
     mailbox and signals, and cancels or re-arms one-shot timers. *)
  let oneshots = ref [] in
  let ticks = ref 0 in
  let ticker = ref None in
  let tick () =
    incr ticks;
    note (-1);
    Signal.broadcast signals.(int 2);
    if int 2 = 0 then ignore (Mailbox.try_send mb 0)
    else ignore (Mailbox.try_recv mb);
    (match int 3 with
    | 0 ->
        let k = 1000 + !ticks in
        oneshots :=
          Engine.schedule eng ~delay:(delay ()) (fun () -> note k) :: !oneshots
    | 1 -> (
        match !oneshots with
        | h :: rest ->
            Engine.cancel h;
            oneshots := rest
        | [] -> ())
    | _ -> ());
    if !ticks < 400 then
      Engine.reschedule eng
        ~delay:(if int 10 = 0 then 0 else Time.us (1 + int 80))
        (Option.get !ticker)
  in
  ticker := Some (Engine.schedule eng ~delay:(Time.us 3) tick);
  (* Between runs the driver schedules a callback relative to the clock
     it finds, so a sleeper that ran past a stop or a slice horizon
     would show. Budgeted runs stop at different points by design (a
     skipped sleep costs no budget), so nothing is injected there. *)
  let injected = ref 0 in
  let inject () =
    if !injected < 300 then begin
      incr injected;
      let k = 5000 + !injected in
      ignore (Engine.schedule eng ~delay:(!injected mod 3) (fun () -> note k))
    end
  in
  let slices = [| 1; 2; 50; 999; 1_000; 20_000; 250_000; Time.ms 1 |] in
  let budgets = [| 1; 2; 3; 5; 8; 13; 100 |] in
  let round = ref 0 in
  if drive = Chooser then begin
    let crng = Osiris_util.Rng.create ~seed:5 in
    Engine.set_chooser eng
      (Some (fun ~now:_ ~count -> Osiris_util.Rng.int crng count))
  end;
  while Engine.pending eng > 0 do
    let slice = slices.(!round mod Array.length slices)
    and budget = budgets.(!round mod Array.length budgets) in
    incr round;
    match drive with
    | Unbounded ->
        Engine.run eng;
        inject ()
    | Slices ->
        Engine.run ~until:(Engine.now eng + slice) eng;
        inject ()
    | Budgets -> Engine.run ~max_events:budget eng
    | Sliced_budgets ->
        Engine.run ~until:(Engine.now eng + slice) ~max_events:budget eng
    | Chooser -> Engine.run eng
  done;
  (Buffer.contents log, Engine.events_dispatched eng)

let test_sleep_matches_two_event_reference () =
  List.iter
    (fun backend ->
      List.iter
        (fun drive ->
          let real, real_events = process_log ~reference:false ~drive backend
          and oracle, oracle_events =
            process_log ~reference:true ~drive backend
          in
          let what =
            Printf.sprintf "%s, %s"
              (match backend with
              | Engine.Timer_wheel -> "wheel"
              | Engine.Binary_heap -> "heap")
              (drive_name drive)
          in
          Alcotest.(check string) ("resume log: " ^ what) oracle real;
          if drive <> Chooser && real_events >= oracle_events then
            Alcotest.failf "%s: sleep dispatched %d events, reference %d" what
              real_events oracle_events)
        [ Unbounded; Slices; Budgets; Sliced_budgets; Chooser ])
    [ Engine.Timer_wheel; Engine.Binary_heap ]

(* The skip path moves the clock without suspending, so it must not
   skip the in-process check: here nothing else is queued, the case it
   would otherwise take. Neither a failed process nor a run that raised
   may leave the check or the run horizon behind. *)
let test_sleep_in_plain_callback () =
  let eng = Engine.create () in
  let plain_sleep () = Process.sleep eng 10 in
  ignore (Engine.schedule eng ~delay:5 plain_sleep);
  Alcotest.check_raises "sleep from a plain callback" Process.Not_in_process
    (fun () -> Engine.run eng);
  Process.spawn eng ~name:"boom" (fun () ->
      Process.sleep eng 1;
      failwith "bang");
  Alcotest.check_raises "process fails"
    (Process.Process_failure ("boom", Failure "bang"))
    (fun () -> Engine.run eng);
  ignore (Engine.schedule eng ~delay:5 plain_sleep);
  Alcotest.check_raises "still not in a process" Process.Not_in_process
    (fun () -> Engine.run eng);
  Alcotest.(check bool) "no horizon outside run" false
    (Engine.skip_to eng (Engine.now eng + 1))

(* Heap property: popping returns keys in nondecreasing order. *)
let heap_prop =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (k, v) -> Heap.add h ~key:k ~seq:i v) entries;
      let rec drain last acc =
        match Heap.pop_min h with
        | None -> List.rev acc
        | Some (k, _, v) ->
            if k < last then raise Exit;
            drain k (v :: acc)
      in
      let popped = try drain min_int [] with Exit -> [] in
      List.length popped = List.length entries)

let suite =
  [
    Alcotest.test_case "engine: timestamp order" `Quick test_engine_ordering;
    Alcotest.test_case "engine: same-instant FIFO" `Quick
      test_engine_fifo_same_time;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: bounded run" `Quick test_engine_until;
    Alcotest.test_case "engine: stop" `Quick test_engine_stop;
    Alcotest.test_case "engine: no scheduling in the past" `Quick
      test_schedule_past_rejected;
    Alcotest.test_case "process: sleep" `Quick test_process_sleep;
    Alcotest.test_case "process: named failure" `Quick
      test_process_exception_named;
    Alcotest.test_case "process: blocking outside process" `Quick
      test_not_in_process;
    Alcotest.test_case "mailbox: FIFO" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox: capacity blocks sender" `Quick
      test_mailbox_capacity_blocks;
    Alcotest.test_case "mailbox: try operations" `Quick test_mailbox_try_ops;
    Alcotest.test_case "resource: mutual exclusion" `Quick
      test_resource_mutual_exclusion;
    Alcotest.test_case "resource: priority" `Quick test_resource_priority;
    Alcotest.test_case "resource: utilization stats" `Quick
      test_resource_utilization;
    Alcotest.test_case "signal: broadcast wakes all" `Quick
      test_signal_broadcast;
    Alcotest.test_case "whole-sim determinism" `Quick test_determinism;
    Alcotest.test_case "engine: until advances drained clock" `Quick
      test_until_advances_when_drained;
    Alcotest.test_case "engine: max_events counts live only" `Quick
      test_max_events_counts_live_only;
    Alcotest.test_case "engine: budget never skips pending time" `Quick
      test_until_budget_does_not_skip_pending;
    Alcotest.test_case "engine: reschedule reuses handle" `Quick
      test_reschedule_periodic;
    Alcotest.test_case "engine: reschedule of queued handle rejected" `Quick
      test_reschedule_queued_rejected;
    Alcotest.test_case "engine: reschedule revives cancelled handle" `Quick
      test_reschedule_after_cancel;
    Alcotest.test_case "heap: popped values are released" `Quick
      test_heap_releases_popped_values;
    Alcotest.test_case "wheel: popped values are released" `Quick
      test_wheel_releases_popped_values;
    Alcotest.test_case "wheel: multi-level cascade order" `Quick
      test_wheel_cascade;
    Alcotest.test_case "wheel: floor rejects past keys" `Quick
      test_wheel_floor_rejects_past;
    Alcotest.test_case "differential: wheel vs heap dispatch" `Quick
      test_differential_dispatch;
    Alcotest.test_case "differential: wheel vs heap with chooser" `Quick
      test_differential_dispatch_chooser;
    Alcotest.test_case "differential: sleep vs two-event reference" `Quick
      test_sleep_matches_two_event_reference;
    Alcotest.test_case "process: sleep in a plain callback" `Quick
      test_sleep_in_plain_callback;
    QCheck_alcotest.to_alcotest heap_prop;
    QCheck_alcotest.to_alcotest wheel_model_prop;
    QCheck_alcotest.to_alcotest heap_model_prop;
  ]
