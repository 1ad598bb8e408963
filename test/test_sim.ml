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
  Engine.cancel eng h;
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
  let mb = Mailbox.create eng ~empty:0 () in
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
  let mb = Mailbox.create eng ~capacity:2 ~empty:0 () in
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
  let mb = Mailbox.create eng ~capacity:1 ~empty:0 () in
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
    let mb = Mailbox.create eng ~capacity:3 ~empty:0 () in
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
  List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel eng h) hs;
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
  Engine.cancel eng h;
  Engine.run eng;
  check "cancelled" 0 !fired;
  Engine.reschedule eng ~delay:5 h;
  Engine.run eng;
  check "re-armed handle is live again" 1 !fired

(* ------------------------------------------------------------------ *)
(* Space-leak regressions: a fired event's closure must not stay pinned
   by the slot it was queued in. *)

(* Schedule outside the caller's frame so no stack root keeps [v]
   alive; the returned weak pointer watches the closure's capture. *)
let[@inline never] schedule_watched eng ~delay =
  let v = Bytes.make 64 'x' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  ignore
    (Engine.schedule eng ~delay (fun () -> ignore (Sys.opaque_identity v)));
  w

let released_after_fire ~delay =
  let eng = Engine.create () in
  let w = schedule_watched eng ~delay in
  Engine.run eng;
  Gc.full_major ();
  check "fired" 1 (Engine.events_dispatched eng);
  Weak.get w 0 = None

let test_heap_slot_released () =
  Alcotest.(check bool) "closure of a later event collected (engine alive)"
    true
    (released_after_fire ~delay:10)

let test_fifo_slot_released () =
  Alcotest.(check bool)
    "closure of a same-instant event collected (engine alive)" true
    (released_after_fire ~delay:0)

(* Keys spanning every scale, with same-key runs, come out in (time,
   seq) order. *)
let test_keys_across_scales () =
  let eng = Engine.create () in
  let log = ref [] in
  let keys = [ 0; 5; 5; 31; 32; 1_000; 33_554_432; 1_000_000_000; 7; 0 ] in
  List.iteri
    (fun i k ->
      ignore
        (Engine.schedule_at eng ~time:k (fun () ->
             log := (Engine.now eng, i) :: !log)))
    keys;
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "keys ascend, ties in schedule order"
    [ (0, 0); (0, 9); (5, 1); (5, 2); (7, 8); (31, 3); (32, 4); (1_000, 5);
      (33_554_432, 6); (1_000_000_000, 7) ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* The engine against a sorted-list model. A generated script drives
   one engine and one model through the same [schedule],
   [schedule_at] now, [cancel], [reschedule] and [reschedule_at] calls,
   between runs and from inside callbacks, under [run], [run ~until]
   and [run ~max_events]. The model is a list of queued (time, seq, id)
   entries kept sorted, and a [run] written out over it. Both sides
   log every dispatch as (id, now) and, after every run, [now],
   [pending] and [events_dispatched]; the logs must be equal. *)

type act =
  | Sched of int  (** schedule a new event this far ahead *)
  | Sched_now  (** [schedule_at] the current instant *)
  | Cancel of int  (** cancel handle [k mod count] *)
  | Resched of int * int  (** re-arm handle [k mod count] this far ahead *)
  | Resched_now of int  (** [reschedule_at] it at the current instant *)
  | Resched_self of int  (** a callback re-arming its own handle *)
  | Stop

type bound = Run | Until of int | Max of int | Until_max of int * int

type script = {
  top : (act list * bound) list;  (** calls made between runs, then a run *)
  inner : act list array;  (** event [id]'s callback runs [inner.(id mod n)] *)
}

(* The engine keeps events due 2^16 ns or more ahead in a second heap. *)
let far = 1 lsl 16

(* Delays: the current instant, a few ns (same-time collisions), up to
   50 ns, microseconds and milliseconds, and a few ns either side of the
   far heap's horizon, so equal times meet across the two heaps. *)
let gen_delay =
  QCheck.Gen.(
    frequency
      [
        (3, return 0);
        (2, int_range 1 4);
        (2, int_range 1 50);
        (2, map Time.us (int_range 1 3));
        (1, map Time.ms (int_range 1 2));
        (2, int_range (far - 3) (far + 3));
      ])

let gen_act ~inner =
  QCheck.Gen.(
    frequency
      ([
         (4, map (fun d -> Sched d) gen_delay);
         (2, return Sched_now);
         (2, map (fun k -> Cancel k) small_nat);
         (2, map2 (fun k d -> Resched (k, d)) small_nat gen_delay);
         (1, map (fun k -> Resched_now k) small_nat);
       ]
      @
      if inner then
        [ (2, map (fun d -> Resched_self d) gen_delay); (1, return Stop) ]
      else []))

let gen_bound =
  QCheck.Gen.(
    frequency
      [
        (1, return Run);
        (2, map (fun d -> Until d) gen_delay);
        (2, map (fun n -> Max n) (int_range 1 6));
        (1, map2 (fun d n -> Until_max (d, n)) gen_delay (int_range 1 6));
      ])

let gen_script =
  QCheck.Gen.(
    map2
      (fun top inner -> { top; inner = Array.of_list inner })
      (list_size (int_range 1 25)
         (pair (list_size (int_range 0 6) (gen_act ~inner:false)) gen_bound))
      (list_size (int_range 1 8)
         (list_size (int_range 0 3) (gen_act ~inner:true))))

let pp_act = function
  | Sched d -> Printf.sprintf "sched %d" d
  | Sched_now -> "sched_now"
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Resched (k, d) -> Printf.sprintf "resched %d %d" k d
  | Resched_now k -> Printf.sprintf "resched_now %d" k
  | Resched_self d -> Printf.sprintf "resched_self %d" d
  | Stop -> "stop"

let pp_bound = function
  | Run -> "run"
  | Until d -> Printf.sprintf "until +%d" d
  | Max n -> Printf.sprintf "max %d" n
  | Until_max (d, n) -> Printf.sprintf "until +%d max %d" d n

let pp_script s =
  let acts l = "[" ^ String.concat "; " (List.map pp_act l) ^ "]" in
  String.concat "\n"
    (List.map (fun (a, d) -> acts a ^ " " ^ pp_bound d) s.top
    @ Array.to_list
        (Array.mapi
           (fun i l -> Printf.sprintf "inner %d: %s" i (acts l))
           s.inner))

(* Either side of the comparison: the operations a script needs. Ids
   are handle indices in creation order. [Some d] schedules [d] ahead
   ([schedule], [reschedule]), [None] at the current instant
   ([schedule_at], [reschedule_at]). [arm] returns false when the
   handle is still queued (the engine raises [Invalid_argument]). *)
type side = {
  now : unit -> int;
  pending : unit -> int;
  dispatched : unit -> int;
  create : int option -> (int -> unit) -> unit;
  arm : int -> int option -> bool;
  cancel : int -> unit;
  stop : unit -> unit;
  run : ?until:int -> ?max_events:int -> unit -> unit;
}

let engine_side () =
  let eng = Engine.create () in
  let handles = ref [||] in
  {
    now = (fun () -> Engine.now eng);
    pending = (fun () -> Engine.pending eng);
    dispatched = (fun () -> Engine.events_dispatched eng);
    create =
      (fun delay fire ->
        let id = Array.length !handles in
        let fn () = fire id in
        let h =
          match delay with
          | Some delay -> Engine.schedule eng ~delay fn
          | None -> Engine.schedule_at eng ~time:(Engine.now eng) fn
        in
        handles := Array.append !handles [| h |]);
    arm =
      (fun id delay ->
        let h = !handles.(id) in
        match
          match delay with
          | Some delay -> Engine.reschedule eng ~delay h
          | None -> Engine.reschedule_at eng ~time:(Engine.now eng) h
        with
        | () -> true
        | exception Invalid_argument _ -> false);
    cancel = (fun id -> Engine.cancel eng !handles.(id));
    stop = (fun () -> Engine.stop eng);
    run = (fun ?until ?max_events () -> Engine.run ?until ?max_events eng);
  }

type mh = {
  mutable m_cancelled : bool;
  mutable m_queued : bool;
  m_fire : int -> unit;
}

let model_side () =
  let clock = ref 0 and seq = ref 0 and dispatched = ref 0 in
  let stopping = ref false in
  let queue = ref [] (* (time, seq, id), sorted *) in
  let handles = ref [||] in
  let insert e =
    let rec go = function
      | [] -> [ e ]
      | x :: tl -> if compare x e < 0 then x :: go tl else e :: x :: tl
    in
    queue := go !queue
  in
  let enqueue id delay =
    !handles.(id).m_queued <- true;
    insert (!clock + Option.value delay ~default:0, !seq, id);
    incr seq
  in
  let next_time () = match !queue with [] -> max_int | (t, _, _) :: _ -> t in
  let run ?until ?max_events () =
    stopping := false;
    let executed = ref 0 in
    let continue () =
      (not !stopping)
      && (match max_events with None -> true | Some m -> !executed < m)
      &&
      match until with None -> !queue <> [] | Some u -> next_time () <= u
    in
    while continue () do
      match !queue with
      | [] -> assert false
      | (time, _, id) :: rest ->
          queue := rest;
          clock := time;
          let h = !handles.(id) in
          h.m_queued <- false;
          if not h.m_cancelled then begin
            incr dispatched;
            incr executed;
            h.m_fire id
          end
    done;
    match until with
    | Some u when (not !stopping) && !clock < u && next_time () > u ->
        clock := u
    | _ -> ()
  in
  {
    now = (fun () -> !clock);
    pending = (fun () -> List.length !queue);
    dispatched = (fun () -> !dispatched);
    create =
      (fun delay fire ->
        let id = Array.length !handles in
        handles :=
          Array.append !handles
            [| { m_cancelled = false; m_queued = false; m_fire = fire } |];
        enqueue id delay);
    arm =
      (fun id delay ->
        let h = !handles.(id) in
        if h.m_queued then false
        else begin
          h.m_cancelled <- false;
          enqueue id delay;
          true
        end);
    cancel = (fun id -> !handles.(id).m_cancelled <- true);
    stop = (fun () -> stopping := true);
    run;
  }

(* Play [script] on [side]; the log of what it observed. Scheduling is
   capped so that self-re-arming callbacks terminate. *)
let play script side =
  let log = Buffer.create 1024 in
  let arms = ref 0 and count = ref 0 in
  let budget () = !arms < 400 in
  let rec act ~self a =
    match a with
    | Sched d -> create (Some d)
    | Sched_now -> create None
    | Cancel k -> if !count > 0 then side.cancel (k mod !count)
    | Resched (k, d) -> if !count > 0 then arm (k mod !count) (Some d)
    | Resched_now k -> if !count > 0 then arm (k mod !count) None
    | Resched_self d -> Option.iter (fun id -> arm id (Some d)) self
    | Stop -> side.stop ()
  and create delay =
    if budget () then begin
      incr arms;
      incr count;
      side.create delay fire
    end
  and arm id delay =
    if budget () then begin
      incr arms;
      if not (side.arm id delay) then Buffer.add_string log "queued;"
    end
  and fire id =
    Buffer.add_string log (Printf.sprintf "%d@%d;" id (side.now ()));
    List.iter (act ~self:(Some id))
      script.inner.(id mod Array.length script.inner)
  in
  List.iter
    (fun (acts, bound) ->
      List.iter (act ~self:None) acts;
      (match bound with
      | Run -> side.run ()
      | Until d -> side.run ~until:(side.now () + d) ()
      | Max n -> side.run ~max_events:n ()
      | Until_max (d, n) -> side.run ~until:(side.now () + d) ~max_events:n ());
      Buffer.add_string log
        (Printf.sprintf "|now:%d pending:%d dispatched:%d|\n" (side.now ())
           (side.pending ()) (side.dispatched ())))
    script.top;
  side.run ();
  Buffer.add_string log
    (Printf.sprintf "|end now:%d pending:%d dispatched:%d|" (side.now ())
       (side.pending ()) (side.dispatched ()));
  Buffer.contents log

let engine_model_prop =
  QCheck.Test.make ~name:"engine matches sorted-list model" ~count:500
    (QCheck.make ~print:pp_script gen_script)
    (fun script ->
      let real = play script (engine_side ())
      and model = play script (model_side ()) in
      real = model
      || QCheck.Test.fail_reportf "engine:\n%s\nmodel:\n%s" real model)

(* ------------------------------------------------------------------ *)
(* Pinned dispatch order: a seeded workload whose callbacks draw their
   delays, cancellations and fan-out from an RNG, so the stream only
   stays aligned if every dispatch (and every bounded-run clock
   adjustment) matches exactly. The digests were recorded on the
   hierarchical timer wheel this engine's queue replaced; plain and
   under a seeded chooser, the trace must not move. *)

let dispatch_trace ?chooser () =
  let eng = Engine.create () in
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
            Engine.cancel eng h;
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

let digest s = Digest.to_hex (Digest.string s)

let test_dispatch_trace_pinned () =
  Alcotest.(check string) "trace digest" "6d279ae189c7286097a2d760ee27b9d9"
    (digest (dispatch_trace ()))

let test_dispatch_trace_pinned_chooser () =
  Alcotest.(check string) "trace digest under chooser 11"
    "b898e08907a561b54373668b661c28ef"
    (digest (dispatch_trace ~chooser:11 ()))

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

let process_log ~reference ~drive =
  let eng = Engine.create () in
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
  let mb = Mailbox.create eng ~capacity:2 ~empty:0 () in
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
            Engine.cancel eng h;
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

(* Per drive: the resume log's digest and the events each sleep
   dispatches, recorded on the timer wheel this engine's queue
   replaced. *)
let pinned_logs =
  [
    (Unbounded, "2e411bf0848910b0de2925030edad6ed", 1195, 1531);
    (Slices, "5a284636b4f8346016a8450ea2a4f6a3", 1198, 1531);
    (Budgets, "b3c5f7805debae1b67c06ac39912e657", 877, 1231);
    (Sliced_budgets, "b3c5f7805debae1b67c06ac39912e657", 882, 1231);
    (Chooser, "d80b1b76753eaa2bebabd31250f2115d", 1232, 1232);
  ]

let test_sleep_matches_two_event_reference () =
  List.iter
    (fun (drive, pinned, pinned_real, pinned_oracle) ->
      let real, real_events = process_log ~reference:false ~drive
      and oracle, oracle_events = process_log ~reference:true ~drive in
      let what = drive_name drive in
      Alcotest.(check string) ("resume log: " ^ what) oracle real;
      Alcotest.(check string) ("pinned digest: " ^ what) pinned (digest real);
      check ("sleep events: " ^ what) pinned_real real_events;
      check ("reference events: " ^ what) pinned_oracle oracle_events)
    pinned_logs

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

(* ------------------------------------------------------------------ *)
(* Callback agents against fibers. One seeded scenario is written twice:
   as fibers ([Process.sleep], [Mailbox.recv], [Mailbox.send],
   [Signal.wait], [Resource.use]) and as callback agents
   ([Process.sleep_then], [Mailbox.recv_then], [Mailbox.send_then],
   [Signal.wait_then], [Resource.use_then]). A fiber that stays a fiber
   in both holds the same resource at another priority, so agents and a
   fiber queue for it together. Each actor draws its next step from the
   shared RNG when it runs, so one dispatch out of place derails the
   log; the resume logs, the dispatched-event counts and the resource's
   stats must be equal under every drive. *)

let actors_log ~callbacks ~drive =
  let eng = Engine.create () in
  let rng = Osiris_util.Rng.create ~seed:77 in
  let int n = Osiris_util.Rng.int rng n in
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
  let mb = Mailbox.create eng ~capacity:3 ~empty:0 () in
  let res = Resource.create eng ~capacity:1 in
  let next_id = ref 0 in
  let rec actor ~steps =
    incr next_id;
    let id = !next_id in
    let name = string_of_int id in
    if callbacks then begin
      let a = Process.agent eng ~name in
      let rec step n =
        if n < steps then begin
          let next () =
            note id;
            step (n + 1)
          in
          match int 13 with
          | 0 | 1 | 2 | 3 -> Process.sleep_then a (delay ()) next
          | 4 -> Signal.wait_then signals.(int 2) a next
          | 5 ->
              Signal.broadcast signals.(int 2);
              next ()
          | 6 ->
              ignore (Mailbox.try_send mb id);
              next ()
          | 7 -> Mailbox.recv_then mb a (fun _ -> next ())
          | 8 ->
              if !next_id < 40 then actor ~steps:(2 + int 6);
              next ()
          | 9 ->
              Engine.stop eng;
              Process.sleep_then a (int 3) next
          | 10 ->
              let priority = int 3 in
              let duration = delay () in
              Resource.use_then ~priority res a ~duration next
          | 11 -> Mailbox.send_then mb id a next
          | _ -> Process.sleep_then a 0 next
        end
      in
      Process.start a (fun () ->
          note id;
          step 0)
    end
    else
      Process.spawn eng ~name (fun () ->
          note id;
          for _ = 1 to steps do
            (match int 13 with
            | 0 | 1 | 2 | 3 -> Process.sleep eng (delay ())
            | 4 -> Signal.wait signals.(int 2)
            | 5 -> Signal.broadcast signals.(int 2)
            | 6 -> ignore (Mailbox.try_send mb id)
            | 7 -> ignore (Mailbox.recv mb)
            | 8 -> if !next_id < 40 then actor ~steps:(2 + int 6)
            | 9 ->
                Engine.stop eng;
                Process.sleep eng (int 3)
            | 10 ->
                let priority = int 3 in
                let duration = delay () in
                Resource.use ~priority res ~duration
            | 11 -> Mailbox.send mb id
            | _ -> Process.sleep eng 0);
            note id
          done)
  in
  for _ = 1 to 20 do
    actor ~steps:(10 + int 20)
  done;
  Process.spawn eng ~name:"holder" (fun () ->
      for _ = 1 to 60 do
        let duration = Time.us (1 + int 20) in
        Resource.use ~priority:1 res ~duration;
        note (-2);
        Process.sleep eng (Time.us (int 100))
      done);
  (* A plain ticker keeps the signals and the mailbox moving and
     schedules one-shot timers that it sometimes cancels. *)
  let ticks = ref 0 and oneshots = ref [] in
  let rec tick () =
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
            Engine.cancel eng h;
            oneshots := rest
        | [] -> ())
    | _ -> ());
    if !ticks < 400 then
      ignore
        (Engine.schedule eng
           ~delay:(if int 10 = 0 then 0 else Time.us (1 + int 80))
           tick)
  in
  ignore (Engine.schedule eng ~delay:(Time.us 3) tick);
  if drive = Chooser then begin
    let crng = Osiris_util.Rng.create ~seed:5 in
    Engine.set_chooser eng
      (Some (fun ~now:_ ~count -> Osiris_util.Rng.int crng count))
  end;
  let slices = [| 1; 2; 50; 999; 1_000; 20_000; 250_000; Time.ms 1 |] in
  let budgets = [| 1; 2; 3; 5; 8; 13; 100 |] in
  let round = ref 0 in
  while Engine.pending eng > 0 do
    let slice = slices.(!round mod Array.length slices)
    and budget = budgets.(!round mod Array.length budgets) in
    incr round;
    match drive with
    | Unbounded | Chooser -> Engine.run eng
    | Slices -> Engine.run ~until:(Engine.now eng + slice) eng
    | Budgets -> Engine.run ~max_events:budget eng
    | Sliced_budgets ->
        Engine.run ~until:(Engine.now eng + slice) ~max_events:budget eng
  done;
  let st = Resource.stats res in
  ( Buffer.contents log,
    Engine.events_dispatched eng,
    (st.Resource.busy_time, st.acquisitions, st.wait_time) )

let test_callbacks_match_fibers () =
  List.iter
    (fun drive ->
      let fibers, fiber_events, fiber_res = actors_log ~callbacks:false ~drive
      and agents, agent_events, agent_res = actors_log ~callbacks:true ~drive in
      let what = drive_name drive in
      Alcotest.(check bool)
        (Printf.sprintf "a long log (%s, %d bytes)" what (String.length fibers))
        true
        (String.length fibers > 5000);
      Alcotest.(check string) ("resume log: " ^ what) fibers agents;
      check ("events: " ^ what) fiber_events agent_events;
      let busy, acq, wait = fiber_res in
      Alcotest.(check bool)
        (Printf.sprintf "the resource was contended (%s, %d waited ns)" what
           wait)
        true
        (acq > 20 && wait > 0 && busy > 0);
      Alcotest.(check (triple int int int))
        ("resource stats: " ^ what) fiber_res agent_res)
    [ Unbounded; Slices; Budgets; Sliced_budgets; Chooser ]

(* An exception in a callback agent leaves the engine named, like a
   fiber's, from its first step and from a later one. *)
let test_agent_failure_named () =
  let eng = Engine.create () in
  let a = Process.agent eng ~name:"cb" in
  Process.start a (fun () -> failwith "first");
  Alcotest.check_raises "first step"
    (Process.Process_failure ("cb", Failure "first"))
    (fun () -> Engine.run eng);
  let s = Signal.create eng in
  Signal.wait_then s a (fun () ->
      Process.sleep_then a 5 (fun () -> failwith "later"));
  ignore (Engine.schedule eng ~delay:1 (fun () -> Signal.broadcast s));
  ignore (Engine.schedule eng ~delay:2 ignore);
  Alcotest.check_raises "after a wait and a sleep"
    (Process.Process_failure ("cb", Failure "later"))
    (fun () -> Engine.run eng)

(* An agent owns one wake-up handle and one timer handle and re-arms
   them, so it can have only one event of each queued: a second resume
   before the first has run, or a second sleep before the first timer
   fired, reuses a queued handle and raises. *)
let test_agent_one_event () =
  let eng = Engine.create () in
  let a = Process.agent eng ~name:"one" in
  let ran = ref 0 in
  let resume = Process.await a (fun () -> incr ran) in
  resume ();
  let refused f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "second wake-up refused" true (refused resume);
  Engine.run eng;
  check "the one wake-up ran" 1 !ran;
  Alcotest.(check bool) "re-armed once it ran" false (refused resume);
  Engine.run eng;
  check "and ran again" 2 !ran;
  Process.sleep_then a 10 (fun () -> incr ran);
  Alcotest.(check bool) "second timer refused" true
    (refused (fun () -> Process.sleep_then a 5 ignore));
  Engine.run eng;
  check "the timer's step ran" 3 !ran;
  check "at its instant" 10 (Engine.now eng)

(* Items live in a power-of-two ring that wraps and doubles: FIFO order
   must survive both, for items and for blocked receivers. *)
let test_mailbox_ring () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng ~empty:0 () in
  let sent = ref 0 and got = ref [] in
  let send n =
    for _ = 1 to n do
      incr sent;
      ignore (Mailbox.try_send mb !sent)
    done
  in
  let recv n =
    for _ = 1 to n do
      got := Option.get (Mailbox.try_recv mb) :: !got
    done
  in
  (* Wrap the first ring several times, then grow it mid-wrap twice. *)
  for _ = 1 to 5 do
    send 5;
    recv 4
  done;
  send 20;
  check "queued" 25 (Mailbox.length mb);
  recv 25;
  Alcotest.(check (list int)) "FIFO across wraps and growth"
    (List.init 45 (fun i -> i + 1))
    (List.rev !got);
  (* Receivers wait in a ring too: five agents, served in order. *)
  let order = ref [] in
  for i = 1 to 5 do
    let a = Process.agent eng ~name:(string_of_int i) in
    Process.start a (fun () ->
        Mailbox.recv_then mb a (fun v -> order := (i, v) :: !order))
  done;
  Engine.run eng;
  List.iter (fun v -> ignore (Mailbox.try_send mb v)) [ 10; 20; 30; 40; 50 ];
  Engine.run eng;
  Alcotest.(check (list (pair int int))) "waiting receivers in FIFO order"
    [ (1, 10); (2, 20); (3, 30); (4, 40); (5, 50) ]
    (List.rev !order)

(* A taken item's slot holds the placeholder, so the mailbox (alive)
   does not pin the item. *)
let test_mailbox_slot_released () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng ~capacity:4 ~empty:Bytes.empty () in
  let w = Weak.create 1 in
  let[@inline never] pass () =
    let v = Bytes.make 64 'x' in
    Weak.set w 0 (Some v);
    ignore (Mailbox.try_send mb v);
    ignore (Sys.opaque_identity (Mailbox.try_recv mb))
  in
  pass ();
  Gc.full_major ();
  check "drained" 0 (Mailbox.length mb);
  Alcotest.(check bool) "drained item collected (mailbox alive)" true
    (Weak.get w 0 = None);
  ignore (Sys.opaque_identity mb)

(* ------------------------------------------------------------------ *)
(* Cancelled entries are only marked and keep their place: they still
   count in [pending], still bound [skip_to], still move the clock when
   their instant comes, and still block [reschedule] until then. *)

let test_cancelled_keeps_place () =
  let eng = Engine.create () in
  let fired = ref 0 in
  let h = Engine.schedule eng ~delay:10 (fun () -> incr fired) in
  let live = Engine.schedule eng ~delay:30 (fun () -> incr fired) in
  Engine.cancel eng h;
  Engine.cancel eng h;
  check "cancelled entry still pending" 2 (Engine.pending eng);
  let reschedule_rejected () =
    match Engine.reschedule eng ~delay:1 h with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rejected while its instant is ahead" true
    (reschedule_rejected ());
  let skipped = ref [] in
  ignore
    (Engine.schedule eng ~delay:5 (fun () ->
         skipped := Engine.skip_to eng 12 :: Engine.skip_to eng 9 :: !skipped));
  Engine.run ~until:9 eng;
  Alcotest.(check (list bool)) "skip_to stops at the cancelled instant"
    [ false; true ] !skipped;
  Alcotest.(check bool) "still rejected before its instant" true
    (reschedule_rejected ());
  Alcotest.(check bool) "one step pops it" true (Engine.step eng);
  check "the clock moved to it" 10 (Engine.now eng);
  check "nothing ran" 0 !fired;
  check "one entry left" 1 (Engine.pending eng);
  Engine.reschedule eng ~delay:5 h;
  Engine.run eng;
  check "accepted once its instant passed; both ran" 2 !fired;
  check "clock at the last event" 30 (Engine.now eng);
  (* A same-instant (FIFO) entry cancelled, twice, never runs either. *)
  ignore
    (Engine.schedule eng ~delay:0 (fun () ->
         let f = Engine.schedule eng ~delay:0 (fun () -> incr fired) in
         Engine.cancel eng f;
         Engine.cancel eng f));
  Engine.run eng;
  check "cancelled FIFO entry silent" 2 !fired;
  Engine.cancel eng live;
  check "cancelling a fired event is a no-op" 0 (Engine.pending eng)

(* The same for an entry in the far heap: due [far] or more ahead. A
   [reschedule] is refused before its instant and accepted after, and
   equal times in the two heaps still run in seq order. *)
let test_cancelled_far_entry () =
  let eng = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now eng) :: !log in
  let h = Engine.schedule eng ~delay:(2 * far) (note "cancelled") in
  Engine.cancel eng h;
  let rejected () =
    match Engine.reschedule eng ~delay:1 h with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  (* "far" goes to the far heap at 0; "near" is pushed at 2 ns to the
     near heap, due at the same instant with a higher seq. *)
  ignore (Engine.schedule eng ~delay:(far + 1) (note "far"));
  ignore
    (Engine.schedule eng ~delay:2 (fun () ->
         ignore (Engine.schedule eng ~delay:(far - 1) (note "near"))));
  Engine.run ~until:((2 * far) - 1) eng;
  Alcotest.(check bool) "refused before its instant" true (rejected ());
  check "cancelled far entry still pending" 1 (Engine.pending eng);
  Engine.run ~until:(2 * far) eng;
  check "its instant passed" 0 (Engine.pending eng);
  Alcotest.(check bool) "accepted after it" false (rejected ());
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "cross-heap tie in seq order; the cancelled entry never ran"
    [ ("far", far + 1); ("near", far + 1); ("cancelled", (2 * far) + 1) ]
    (List.rev !log)

(* The same sorted-list model, driven by scripts made mostly of
   cancellations and re-arms: heap and FIFO entries cancelled, often
   twice, and re-arms that the engine must refuse while a cancelled
   entry's instant is ahead and accept once it has passed. *)
let gen_cancel_act ~inner =
  QCheck.Gen.(
    frequency
      ([
         (3, map (fun d -> Sched d) gen_delay);
         (2, return Sched_now);
         (5, map (fun k -> Cancel k) (int_range 0 7));
         (3, map2 (fun k d -> Resched (k, d)) (int_range 0 7) gen_delay);
         (1, map (fun k -> Resched_now k) (int_range 0 7));
       ]
      @ if inner then [ (2, map (fun d -> Resched_self d) gen_delay) ] else []))

let gen_cancel_script =
  QCheck.Gen.(
    map2
      (fun top inner -> { top; inner = Array.of_list inner })
      (list_size (int_range 1 25)
         (pair
            (list_size (int_range 0 8) (gen_cancel_act ~inner:false))
            gen_bound))
      (list_size (int_range 1 8)
         (list_size (int_range 0 4) (gen_cancel_act ~inner:true))))

let cancel_model_prop =
  QCheck.Test.make ~name:"cancel-heavy engine matches sorted-list model"
    ~count:500
    (QCheck.make ~print:pp_script gen_cancel_script)
    (fun script ->
      let real = play script (engine_side ())
      and model = play script (model_side ()) in
      real = model
      || QCheck.Test.fail_reportf "engine:\n%s\nmodel:\n%s" real model)

let test_cancelled_slot_released () =
  let eng = Engine.create () in
  let v = ref (Some (Bytes.make 64 'x')) in
  let w = Weak.create 1 in
  Weak.set w 0 !v;
  let[@inline never] arm () =
    let b = Option.get !v in
    Engine.schedule eng ~delay:10 (fun () -> ignore (Sys.opaque_identity b))
  in
  let h = arm () in
  v := None;
  Engine.cancel eng h;
  Engine.run ~until:20 eng;
  Gc.full_major ();
  check "nothing ran" 0 (Engine.events_dispatched eng);
  Alcotest.(check bool)
    "closure of a cancelled event collected once its instant passed" true
    (Weak.get w 0 = None)

(* The engine holds only what is pending. Eight timers that reschedule
   themselves forever, 1 ns to 30 ms apart, allocate a handle and a
   closure per event; over a second segment of 500k events the live
   major heap must stay where the first segment left it. An engine that
   pinned dispatched handles or their closures would grow it by words
   per event. *)
let test_live_heap_flat () =
  let eng = Engine.create () in
  let rec tick d () = ignore (Engine.schedule eng ~delay:d (tick d)) in
  List.iter
    (fun d -> ignore (Engine.schedule eng ~delay:d (tick d)))
    [ 1; 3; 10; 123; 1_000; 50_000; 1_000_000; 30_000_000 ];
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  Engine.run ~max_events:500_000 eng;
  let first = live_words () in
  Engine.run ~max_events:500_000 eng;
  let growth = live_words () - first in
  check "events dispatched" 1_000_000 (Engine.events_dispatched eng);
  if growth > 1_000 then
    Alcotest.failf "the second 500k events added %d live words (bound 1000)"
      growth

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
    Alcotest.test_case "engine: heap slot releases closure" `Quick
      test_heap_slot_released;
    Alcotest.test_case "engine: FIFO slot releases closure" `Quick
      test_fifo_slot_released;
    Alcotest.test_case "engine: keys across all scales" `Quick
      test_keys_across_scales;
    Alcotest.test_case "dispatch trace: parent digest" `Quick
      test_dispatch_trace_pinned;
    Alcotest.test_case "dispatch trace: chooser digest" `Quick
      test_dispatch_trace_pinned_chooser;
    Alcotest.test_case "differential: sleep vs two-event reference" `Quick
      test_sleep_matches_two_event_reference;
    Alcotest.test_case "process: sleep in a plain callback" `Quick
      test_sleep_in_plain_callback;
    QCheck_alcotest.to_alcotest engine_model_prop;
    Alcotest.test_case "agents: callbacks match fibers" `Quick
      test_callbacks_match_fibers;
    Alcotest.test_case "agents: failure carries the name" `Quick
      test_agent_failure_named;
    Alcotest.test_case "engine: cancelled entry keeps its place" `Quick
      test_cancelled_keeps_place;
    Alcotest.test_case "engine: cancelled slot releases closure" `Quick
      test_cancelled_slot_released;
    Alcotest.test_case "engine: cancelled far entry keeps its place" `Quick
      test_cancelled_far_entry;
    Alcotest.test_case "agents: one event of each kind queued" `Quick
      test_agent_one_event;
    Alcotest.test_case "mailbox: ring wraps and grows" `Quick
      test_mailbox_ring;
    Alcotest.test_case "mailbox: drained slot releases item" `Quick
      test_mailbox_slot_released;
    QCheck_alcotest.to_alcotest cancel_model_prop;
    Alcotest.test_case "engine: live heap flat over 1M events" `Quick
      test_live_heap_flat;
  ]
