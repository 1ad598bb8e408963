type handle = {
  mutable cancelled : bool;
  mutable queued : bool; (* currently sitting in the event queue *)
  fn : unit -> unit;
}

type chooser = now:Time.t -> count:int -> int

type backend = Timer_wheel | Binary_heap

(* Both queues implement the same (key, seq) contract; the wheel is the
   default, the heap is kept for differential testing (and as the
   fallback should a workload ever need to schedule below the wheel's
   pop floor — the engine itself never does). *)
type events = E_wheel of handle Wheel.t | E_heap of handle Heap.t

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable stopping : bool;
  mutable dispatched : int;
  mutable chooser : chooser option;
  mutable horizon : Time.t; (* the running [run]'s [until]; -1 outside [run] *)
  events : events;
}

exception Stopped

let dummy_handle = { cancelled = true; queued = false; fn = ignore }

let create ?(backend = Timer_wheel) () =
  let events =
    match backend with
    | Timer_wheel -> E_wheel (Wheel.create ~dummy:dummy_handle)
    | Binary_heap -> E_heap (Heap.create ())
  in
  { clock = Time.zero; seq = 0; stopping = false; dispatched = 0;
    chooser = None; horizon = -1; events }

let set_chooser t c = t.chooser <- c

let now t = t.clock

let events_dispatched t = t.dispatched

let ev_add t ~key ~seq h =
  h.queued <- true;
  match t.events with
  | E_wheel q -> Wheel.add q ~key ~seq h
  | E_heap q ->
      (Heap.add q ~key ~seq h
      [@osiris.alloc_ok
        "heap backend boxes one Entry per add; it exists for differential \
         testing, the production backend is the wheel"])

(* Allocation-free dispatch primitives: [ev_take] raises [Not_found] on
   an empty queue, and the popped entry's (time, seq) is read back
   through [ev_last_key] — the option-returning [ev_pop]/[ev_peek]
   remain for the chooser path, which allocates anyway. *)
let ev_take t =
  let h =
    match t.events with E_wheel q -> Wheel.take q | E_heap q -> Heap.take q
  in
  h.queued <- false;
  h

let ev_last_key t =
  match t.events with
  | E_wheel q -> Wheel.last_key q
  | E_heap q -> Heap.last_key q

let ev_next_key t =
  match t.events with
  | E_wheel q -> Wheel.next_key q
  | E_heap q -> Heap.next_key q

let ev_last_seq t =
  match t.events with
  | E_wheel q -> Wheel.last_seq q
  | E_heap q -> Heap.last_seq q

let ev_pop t =
  match ev_take t with
  | exception Not_found -> None
  | h -> Some (ev_last_key t, ev_last_seq t, h)

let ev_peek t =
  match t.events with
  | E_wheel q -> Wheel.peek_key q
  | E_heap q -> Heap.peek_key q

let pending t =
  match t.events with
  | E_wheel q -> Wheel.length q
  | E_heap q -> Heap.length q

let check_time t time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
         time t.clock)

let schedule_at t ~time fn =
  check_time t time;
  let h = { cancelled = false; queued = false; fn } in
  ev_add t ~key:time ~seq:t.seq h;
  t.seq <- t.seq + 1;
  h

let schedule t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) fn

let reschedule_at t ~time h =
  if h.queued then
    invalid_arg "Engine.reschedule_at: handle is still queued";
  check_time t time;
  h.cancelled <- false;
  ev_add t ~key:time ~seq:t.seq h;
  t.seq <- t.seq + 1

let reschedule t ~delay h =
  if delay < 0 then invalid_arg "Engine.reschedule: negative delay";
  reschedule_at t ~time:(t.clock + delay) h

let cancel h = h.cancelled <- true

(* A callback scheduled now at [time] would be the very next one [run]
   dispatches, and before [run] returns, exactly when [time] is inside
   the horizon, strictly before every queued key (a queued event at
   [time] has the lower seq) and no stop or chooser can intervene. Then
   running its work inline at [time] is the same dispatch order. *)
let skip_to t time =
  if
    time <= t.horizon && time >= t.clock && (not t.stopping)
    && (match t.chooser with None -> true | Some _ -> false)
    && time < ev_next_key t
  then begin
    t.clock <- time;
    true
  end
  else false

(* Pop every live (non-cancelled) event scheduled at [key], in seq order.
   Cancelled entries are dropped on the way — they must not count as
   schedulable alternatives. *)
let pop_instant t key =
  let rec go acc =
    match ev_peek t with
    | Some k when k = key -> (
        match ev_pop t with
        | Some (_, seq, h) ->
            go (if h.cancelled then acc else (seq, h) :: acc)
        | None -> acc)
    | _ -> acc
  in
  List.rev (go [])

(* One scheduling decision. [`Skipped] is a dispatch that consumed only
   cancelled handles — it advances the clock (matching the historical
   behaviour) but must not count against a [run ~max_events] budget. *)
let step_live t =
  match t.chooser with
  | None -> (
      match ev_take t with
      | exception Not_found -> `Empty
      | h ->
          t.clock <- ev_last_key t;
          if h.cancelled then `Skipped
          else begin
            t.dispatched <- t.dispatched + 1;
            (h.fn ()
            [@osiris.alloc_ok
              "dispatch: what the callback allocates is the callback's \
               budget, not the engine's"]);
            `Dispatched
          end)
  | Some choose ->
      ((match ev_peek t with
       | None -> `Empty
       | Some key -> (
           match pop_instant t key with
           | [] -> `Skipped (* only cancelled events at this instant *)
           | [ (_, h) ] ->
               t.clock <- key;
               t.dispatched <- t.dispatched + 1;
               h.fn ();
               `Dispatched
           | candidates ->
               let n = List.length candidates in
               let i = choose ~now:key ~count:n in
               if i < 0 || i >= n then
                 invalid_arg
                   (Printf.sprintf
                      "Engine: chooser picked %d of %d candidates" i n);
               let _, h = List.nth candidates i in
               List.iteri
                 (fun j (seq, h') -> if j <> i then ev_add t ~key ~seq h')
                 candidates;
               t.clock <- key;
               t.dispatched <- t.dispatched + 1;
               h.fn ();
               `Dispatched))
      [@osiris.alloc_ok
        "schedule-explorer path: a chooser is installed only by \
         Osiris_check interleaving searches, never in production or \
         benchmark runs"])

let step t = step_live t <> `Empty

let stop t = t.stopping <- true

let run ?until ?max_events t =
  t.stopping <- false;
  let outer = t.horizon in
  t.horizon <- (match until with Some u -> u | None -> max_int);
  let executed = ref 0 in
  let continue () =
    (not t.stopping)
    && (match max_events with None -> true | Some m -> !executed < m)
    &&
    match until with
    | None -> pending t > 0
    | Some u -> ev_next_key t <= u (* max_int when empty: never <= u *)
  in
  Fun.protect
    ~finally:(fun () -> t.horizon <- outer)
    (fun () ->
      while continue () do
        match step_live t with
        | `Dispatched -> incr executed
        | `Skipped | `Empty -> ()
      done);
  (* When stopping because of [until], advance the clock to the horizon
     so repeated bounded runs observe monotonic time — including when
     the queue drained mid-run — but never past a still-pending event
     inside the horizon (the [max_events] budget can end the run with
     such events unfired, and firing them later must not move time
     backwards). *)
  match until with
  | Some u when (not t.stopping) && t.clock < u ->
      if ev_next_key t > u then t.clock <- u
  | _ -> ()
