(* Where a handle is, in one immediate int so the record stays two
   words: its slot in the hot heap ([>= 0], always live), or one of the
   codes below. A cancelled entry keeps its queue position until its
   (time, seq) comes up, in the FIFO or in the cold heap, so cancelling
   never changes what the clock, [pending] or [reschedule] see. *)
let idle = -1 (* not queued *)
let idle_cancelled = -2 (* just taken, and it had been cancelled *)
let in_fifo = -3
let in_fifo_cancelled = -4
let in_cold = -5 (* in the cold heap: cancelled *)

type handle = { mutable place : int; fn : unit -> unit }

type chooser = now:Time.t -> count:int -> int

(* A 4-ary min-heap on (time, seq), held in three parallel arrays so an
   entry costs no allocation. The hot heap tracks each handle's slot in
   [place], so [cancel] can lift the entry out; the cold heap does
   not. *)
type heap = {
  mutable heap_time : int array;
  mutable heap_seq : int array;
  mutable heap_ev : handle array;
  mutable heap_len : int;
  tracked : bool;
}

(* The event queue is three structures that together dispatch in
   (time, seq) order:

   - the hot heap of live future events;
   - the cold heap, where [cancel] moves a heap entry with its key
     unchanged, so the hot heap holds only events that will run;
   - a FIFO ring of the events due at exactly [clock], in seq order.

   An event scheduled for the current instant goes to the FIFO, any
   later one to the hot heap. Every heap entry due now was added before
   the clock reached its time, so its seq is lower than any FIFO
   entry's: serving the heaps' entries at [clock] first (the lower
   (time, seq) of the two tops), then the FIFO, is exactly (time, seq)
   order. The FIFO only ever holds one instant, because the clock never
   moves while it is non-empty: [take] serves it before any later heap
   entry, and [run ~until] and [skip_to] only move the clock strictly
   before the next queued time. Vacated slots are overwritten with
   [dummy], so a fired or drained event's closure is never pinned. *)
type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable stopping : bool;
  mutable dispatched : int;
  mutable chooser : chooser option;
  mutable horizon : Time.t; (* the running [run]'s [until]; -1 outside [run] *)
  hot : heap;
  cold : heap;
  mutable fifo : handle array; (* ring; length a power of two *)
  mutable fifo_first : int;
  mutable fifo_len : int;
}

exception Stopped

let dummy = { place = idle; fn = ignore }

let create_heap ~tracked =
  {
    heap_time = Array.make 64 0;
    heap_seq = Array.make 64 0;
    heap_ev = Array.make 64 dummy;
    heap_len = 0;
    tracked;
  }

let create () =
  {
    clock = Time.zero;
    seq = 0;
    stopping = false;
    dispatched = 0;
    chooser = None;
    horizon = -1;
    hot = create_heap ~tracked:true;
    cold = create_heap ~tracked:false;
    fifo = Array.make 16 dummy;
    fifo_first = 0;
    fifo_len = 0;
  }

let set_chooser t c = t.chooser <- c

let now t = t.clock

let events_dispatched t = t.dispatched

let pending t = t.hot.heap_len + t.cold.heap_len + t.fifo_len

let[@inline] top_time q = if q.heap_len > 0 then q.heap_time.(0) else max_int

(* Earliest queued time, [max_int] when empty: the FIFO's instant is
   the clock, and no heap entry is earlier. *)
let next_key t =
  if t.fifo_len > 0 then t.clock
  else
    let h = top_time t.hot and c = top_time t.cold in
    if h < c then h else c

let grow_heap q =
  let n = 2 * Array.length q.heap_time in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 q.heap_len;
    b
  in
  q.heap_time <- extend q.heap_time 0;
  q.heap_seq <- extend q.heap_seq 0;
  q.heap_ev <- extend q.heap_ev dummy

let grow_fifo t =
  let cap = Array.length t.fifo in
  let b = Array.make (2 * cap) dummy in
  for i = 0 to t.fifo_len - 1 do
    b.(i) <- t.fifo.((t.fifo_first + i) land (cap - 1))
  done;
  t.fifo <- b;
  t.fifo_first <- 0

let[@inline] set_slot q i time seq h =
  q.heap_time.(i) <- time;
  q.heap_seq.(i) <- seq;
  q.heap_ev.(i) <- h;
  if q.tracked then h.place <- i

(* Sift loops move the hole rather than swapping, and live at top level:
   defined inside [push]/[take] they would capture the heap and allocate
   a closure per operation. *)
let rec sift_up q i time seq h =
  if i = 0 then set_slot q 0 time seq h
  else begin
    let p = (i - 1) / 4 in
    let pt = q.heap_time.(p) in
    if time < pt || (time = pt && seq < q.heap_seq.(p)) then begin
      set_slot q i pt q.heap_seq.(p) q.heap_ev.(p);
      sift_up q p time seq h
    end
    else set_slot q i time seq h
  end

let[@inline] less q a b =
  let ta = q.heap_time.(a) and tb = q.heap_time.(b) in
  ta < tb || (ta = tb && q.heap_seq.(a) < q.heap_seq.(b))

let rec sift_down q i time seq h =
  let n = q.heap_len in
  let c = (4 * i) + 1 in
  if c >= n then set_slot q i time seq h
  else begin
    let m = c in
    let m = if c + 1 < n && less q (c + 1) m then c + 1 else m in
    let m = if c + 2 < n && less q (c + 2) m then c + 2 else m in
    let m = if c + 3 < n && less q (c + 3) m then c + 3 else m in
    let mt = q.heap_time.(m) in
    if mt < time || (mt = time && q.heap_seq.(m) < seq) then begin
      set_slot q i mt q.heap_seq.(m) q.heap_ev.(m);
      sift_down q m time seq h
    end
    else set_slot q i time seq h
  end

let[@inline] heap_add q time seq h =
  if q.heap_len = Array.length q.heap_time then
    (grow_heap q
    [@osiris.alloc_ok
      "heap doubling: once per doubling of the deepest queue, then reused"]);
  q.heap_len <- q.heap_len + 1;
  sift_up q (q.heap_len - 1) time seq h

(* Take the entry at slot [i] out of [q]: the last entry fills the hole
   and sifts whichever way its key says. *)
let heap_remove q i =
  let n = q.heap_len - 1 in
  q.heap_len <- n;
  let last = q.heap_ev.(n) in
  q.heap_ev.(n) <- dummy;
  if i < n then begin
    let time = q.heap_time.(n) and seq = q.heap_seq.(n) in
    let p = (i - 1) / 4 in
    if
      i > 0
      && (time < q.heap_time.(p)
         || (time = q.heap_time.(p) && seq < q.heap_seq.(p)))
    then sift_up q i time seq last
    else sift_down q i time seq last
  end

(* Queue [h] at [time] (never before the clock) with a fresh seq. *)
let push t ~time h =
  if time = t.clock then begin
    if t.fifo_len = Array.length t.fifo then
      (grow_fifo t
      [@osiris.alloc_ok
        "ring doubling: once per doubling of the deepest same-instant \
         backlog, then reused"]);
    t.fifo.((t.fifo_first + t.fifo_len) land (Array.length t.fifo - 1)) <- h;
    t.fifo_len <- t.fifo_len + 1;
    h.place <- in_fifo
  end
  else heap_add t.hot time t.seq h;
  t.seq <- t.seq + 1

let[@inline] less_top a b =
  let ta = a.heap_time.(0) and tb = b.heap_time.(0) in
  ta < tb || (ta = tb && a.heap_seq.(0) < b.heap_seq.(0))

(* Remove the next event in (time, seq) order and move the clock to its
   time; its [place] says whether it had been cancelled. The caller
   guarantees the queue is non-empty. *)
let take t =
  let hot = t.hot and cold = t.cold in
  let q =
    if cold.heap_len > 0 && (hot.heap_len = 0 || less_top cold hot) then cold
    else hot
  in
  if t.fifo_len > 0 && (q.heap_len = 0 || q.heap_time.(0) > t.clock) then begin
    let i = t.fifo_first in
    let h = t.fifo.(i) in
    t.fifo.(i) <- dummy;
    t.fifo_first <- (i + 1) land (Array.length t.fifo - 1);
    t.fifo_len <- t.fifo_len - 1;
    h.place <- (if h.place = in_fifo then idle else idle_cancelled);
    h
  end
  else begin
    let h = q.heap_ev.(0) in
    t.clock <- q.heap_time.(0);
    let n = q.heap_len - 1 in
    q.heap_len <- n;
    let last = q.heap_ev.(n) in
    q.heap_ev.(n) <- dummy;
    if n > 0 then sift_down q 0 q.heap_time.(n) q.heap_seq.(n) last;
    h.place <- (if q.tracked then idle else idle_cancelled);
    h
  end

let check_time t time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
         time t.clock)

let schedule_at t ~time fn =
  check_time t time;
  let h =
    ({ place = idle; fn }
    [@osiris.alloc_ok
      "the one handle per scheduled event: a fresh record keeps the \
       major GC's write barrier off long-lived handles"])
  in
  push t ~time h;
  h

let schedule t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) fn

let queued h = h.place >= 0 || h.place <= in_fifo

let reschedule_at t ~time h =
  if queued h then invalid_arg "Engine.reschedule_at: handle is still queued";
  check_time t time;
  push t ~time h

let reschedule t ~delay h =
  if delay < 0 then invalid_arg "Engine.reschedule: negative delay";
  reschedule_at t ~time:(t.clock + delay) h

(* A live hot-heap entry moves to the cold heap under the same key; a
   FIFO entry is only marked. Either way it still occupies its (time,
   seq) until [take] drops it there. *)
let cancel t h =
  let i = h.place in
  if i >= 0 then begin
    let q = t.hot in
    if q.heap_ev.(i) != h then
      (invalid_arg "Engine.cancel: handle of another engine"
      [@osiris.alloc_ok "cold error path: raises, never returns"]);
    let time = q.heap_time.(i) and seq = q.heap_seq.(i) in
    heap_remove q i;
    heap_add t.cold time seq h;
    h.place <- in_cold
  end
  else if i = in_fifo then h.place <- in_fifo_cancelled

(* A callback scheduled now at [time] would be the very next one [run]
   dispatches, and before [run] returns, exactly when [time] is inside
   the horizon, strictly before every queued key (a queued event at
   [time] has the lower seq) and no stop or chooser can intervene. Then
   running its work inline at [time] is the same dispatch order. *)
let skip_to t time =
  if
    time <= t.horizon && time >= t.clock && (not t.stopping)
    && (match t.chooser with None -> true | Some _ -> false)
    && time < next_key t
  then begin
    t.clock <- time;
    true
  end
  else false

(* Pop every live (non-cancelled) event due at the next instant, in seq
   order; cancelled entries are dropped on the way — they must not count
   as schedulable alternatives. *)
let pop_instant t =
  let key = next_key t in
  let rec go acc =
    if pending t > 0 && next_key t = key then
      let h = take t in
      go (if h.place = idle_cancelled then acc else h :: acc)
    else List.rev acc
  in
  go []

(* One scheduling decision. [`Skipped] is a dispatch that consumed only
   cancelled handles — it advances the clock (matching the historical
   behaviour) but must not count against a [run ~max_events] budget. *)
let step_live t =
  if pending t = 0 then `Empty
  else
    match t.chooser with
    | None ->
        let h = take t in
        if h.place = idle_cancelled then `Skipped
        else begin
          t.dispatched <- t.dispatched + 1;
          (h.fn ()
          [@osiris.alloc_ok
            "dispatch: what the callback allocates is the callback's \
             budget, not the engine's"]);
          `Dispatched
        end
    | Some choose -> (
        let clock = t.clock in
        match pop_instant t with
        | [] ->
            (* Only cancelled events at this instant: under a chooser
               the clock moves on dispatch only. *)
            t.clock <- clock;
            `Skipped
        | [ h ] ->
            t.dispatched <- t.dispatched + 1;
            h.fn ();
            `Dispatched
        | candidates ->
            let n = List.length candidates in
            let i = choose ~now:t.clock ~count:n in
            if i < 0 || i >= n then
              invalid_arg
                (Printf.sprintf "Engine: chooser picked %d of %d candidates"
                   i n);
            (* The instant is empty now, so the others go back to the
               FIFO in seq order, ahead of anything the pick schedules. *)
            List.iteri (fun j h -> if j <> i then push t ~time:t.clock h)
              candidates;
            let h = List.nth candidates i in
            t.dispatched <- t.dispatched + 1;
            h.fn ();
            `Dispatched)
        [@osiris.alloc_ok
          "schedule-explorer path: a chooser is installed only by \
           Osiris_check interleaving searches, never in production or \
           benchmark runs"]

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
    | Some u -> next_key t <= u (* max_int when empty: never <= u *)
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
      if next_key t > u then t.clock <- u
  | _ -> ()
