(* What a handle is doing, in one immediate int. A cancelled entry keeps
   its queue position until its (time, seq) comes up, so cancelling never
   changes what the clock, [pending] or [reschedule] see. *)
let idle = 0 (* not queued *)
let idle_cancelled = 1 (* just taken, and it had been cancelled *)
let queued = 2
let queued_cancelled = 3

type handle = { mutable status : int; fn : unit -> unit }

type chooser = now:Time.t -> count:int -> int

(* A 4-ary min-heap on (time, seq) of immediate ints: entry [i] is
   [heap_keys.(3i)] (time), [.(3i+1)] (seq) and [.(3i+2)], the pool slot
   that holds its handle. A sift moves ints only, so it allocates nothing
   and calls no write barrier. *)
type heap = { mutable heap_keys : int array; mutable heap_len : int }

(* Events due this far past the clock, or further, wait in the far heap,
   so the near heap that per-cell events sift through stays small. *)
let far_delay = 1 lsl 16

(* The event queue is four structures that together dispatch in
   (time, seq) order:

   - the near heap of events due less than [far_delay] after the clock
     when they were pushed, and the far heap of the later ones;
   - the handle pool: a heap entry's handle sits in one pool slot,
     written once at push and cleared once at take;
   - a FIFO ring of the events due at exactly [clock], in seq order.

   An event scheduled for the current instant goes to the FIFO, any
   later one to a heap. Every heap entry due now was added before the
   clock reached its time, so its seq is lower than any FIFO entry's:
   serving the heaps' entries at [clock] first (the lower (time, seq) of
   the two tops), then the FIFO, is exactly (time, seq) order. The FIFO
   only ever holds one instant, because the clock never moves while it
   is non-empty: [take] serves it before any later heap entry, and
   [run ~until] and [skip_to] only move the clock strictly before the
   next queued time. Vacated pool and ring slots are overwritten with
   [dummy], so a fired or drained event's closure is never pinned. *)
type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable stopping : bool;
  mutable dispatched : int;
  mutable chooser : chooser option;
  mutable horizon : Time.t; (* the running [run]'s [until]; -1 outside [run] *)
  near : heap;
  far : heap;
  mutable pool : handle array;
  mutable pool_free : int array; (* stack of the free pool slots *)
  mutable pool_nfree : int;
  mutable fifo : handle array; (* ring; length a power of two *)
  mutable fifo_first : int;
  mutable fifo_len : int;
}

exception Stopped

let dummy = { status = idle; fn = ignore }

let create_heap () = { heap_keys = Array.make (3 * 64) 0; heap_len = 0 }

let create () =
  {
    clock = Time.zero;
    seq = 0;
    stopping = false;
    dispatched = 0;
    chooser = None;
    horizon = -1;
    near = create_heap ();
    far = create_heap ();
    pool = Array.make 64 dummy;
    pool_free = Array.init 64 (fun i -> 63 - i);
    pool_nfree = 64;
    fifo = Array.make 16 dummy;
    fifo_first = 0;
    fifo_len = 0;
  }

let set_chooser t c = t.chooser <- c

let now t = t.clock

let events_dispatched t = t.dispatched

let pending t = t.near.heap_len + t.far.heap_len + t.fifo_len

let unarmed fn = { status = idle; fn }

let[@inline] top_time q = if q.heap_len > 0 then q.heap_keys.(0) else max_int

(* Earliest queued time, [max_int] when empty: the FIFO's instant is
   the clock, and no heap entry is earlier. *)
let next_key t =
  if t.fifo_len > 0 then t.clock
  else
    let n = top_time t.near and f = top_time t.far in
    if n < f then n else f

let grow_heap q =
  let b = Array.make (2 * Array.length q.heap_keys) 0 in
  Array.blit q.heap_keys 0 b 0 (3 * q.heap_len);
  q.heap_keys <- b

let grow_pool t =
  let cap = Array.length t.pool in
  let pool = Array.make (2 * cap) dummy in
  Array.blit t.pool 0 pool 0 cap;
  t.pool <- pool;
  let free = Array.make (2 * cap) 0 in
  for i = 0 to cap - 1 do
    free.(i) <- (2 * cap) - 1 - i
  done;
  t.pool_free <- free;
  t.pool_nfree <- cap

let grow_fifo t =
  let cap = Array.length t.fifo in
  let b = Array.make (2 * cap) dummy in
  for i = 0 to t.fifo_len - 1 do
    b.(i) <- t.fifo.((t.fifo_first + i) land (cap - 1))
  done;
  t.fifo <- b;
  t.fifo_first <- 0

let[@inline] set_entry (k : int array) i (time : int) (seq : int) slot =
  let j = 3 * i in
  k.(j) <- time;
  k.(j + 1) <- seq;
  k.(j + 2) <- slot

(* Sift loops move the hole rather than swapping, and live at top level:
   defined inside [push]/[take] they would capture the heap and allocate
   a closure per operation. The int annotations matter: left polymorphic,
   every compare would be a [caml_lessthan] call and every store a
   [caml_modify]. *)
let rec sift_up (k : int array) i (time : int) (seq : int) slot =
  if i = 0 then set_entry k 0 time seq slot
  else begin
    let p = (i - 1) / 4 in
    let pj = 3 * p in
    let pt = k.(pj) in
    if time < pt || (time = pt && seq < k.(pj + 1)) then begin
      set_entry k i pt k.(pj + 1) k.(pj + 2);
      sift_up k p time seq slot
    end
    else set_entry k i time seq slot
  end

let[@inline] less (k : int array) a b =
  let ta = k.(3 * a) and tb = k.(3 * b) in
  ta < tb || (ta = tb && k.((3 * a) + 1) < k.((3 * b) + 1))

let rec sift_down (k : int array) n i (time : int) (seq : int) slot =
  let c = (4 * i) + 1 in
  if c >= n then set_entry k i time seq slot
  else begin
    let m = c in
    let m = if c + 1 < n && less k (c + 1) m then c + 1 else m in
    let m = if c + 2 < n && less k (c + 2) m then c + 2 else m in
    let m = if c + 3 < n && less k (c + 3) m then c + 3 else m in
    let mj = 3 * m in
    let mt = k.(mj) in
    if mt < time || (mt = time && k.(mj + 1) < seq) then begin
      set_entry k i mt k.(mj + 1) k.(mj + 2);
      sift_down k n m time seq slot
    end
    else set_entry k i time seq slot
  end

let[@inline] heap_add q time seq slot =
  if 3 * q.heap_len = Array.length q.heap_keys then
    (grow_heap q
    [@osiris.alloc_ok
      "heap doubling: once per doubling of the deepest queue, then reused"]);
  q.heap_len <- q.heap_len + 1;
  sift_up q.heap_keys (q.heap_len - 1) time seq slot

(* Queue [h] at [time] (never before the clock) with a fresh seq. *)
let push t ~time h =
  h.status <- queued;
  if time = t.clock then begin
    if t.fifo_len = Array.length t.fifo then
      (grow_fifo t
      [@osiris.alloc_ok
        "ring doubling: once per doubling of the deepest same-instant \
         backlog, then reused"]);
    t.fifo.((t.fifo_first + t.fifo_len) land (Array.length t.fifo - 1)) <- h;
    t.fifo_len <- t.fifo_len + 1
  end
  else begin
    if t.pool_nfree = 0 then
      (grow_pool t
      [@osiris.alloc_ok
        "pool doubling: once per doubling of the most events pending in \
         the heaps, then reused"]);
    let n = t.pool_nfree - 1 in
    t.pool_nfree <- n;
    let slot = t.pool_free.(n) in
    t.pool.(slot) <- h;
    heap_add
      (if time - t.clock < far_delay then t.near else t.far)
      time t.seq slot
  end;
  t.seq <- t.seq + 1

let[@inline] less_top a b =
  let ka = a.heap_keys and kb = b.heap_keys in
  let ta = ka.(0) and tb = kb.(0) in
  ta < tb || (ta = tb && ka.(1) < kb.(1))

(* Remove the next event in (time, seq) order and move the clock to its
   time; its [status] says whether it had been cancelled. The caller
   guarantees the queue is non-empty. *)
let take t =
  let near = t.near and far = t.far in
  let q =
    if far.heap_len > 0 && (near.heap_len = 0 || less_top far near) then far
    else near
  in
  let h =
    if t.fifo_len > 0 && (q.heap_len = 0 || q.heap_keys.(0) > t.clock)
    then begin
      let i = t.fifo_first in
      let h = t.fifo.(i) in
      t.fifo.(i) <- dummy;
      t.fifo_first <- (i + 1) land (Array.length t.fifo - 1);
      t.fifo_len <- t.fifo_len - 1;
      h
    end
    else begin
      let k = q.heap_keys in
      t.clock <- k.(0);
      let slot = k.(2) in
      let n = q.heap_len - 1 in
      q.heap_len <- n;
      if n > 0 then sift_down k n 0 k.(3 * n) k.((3 * n) + 1) k.((3 * n) + 2);
      let h = t.pool.(slot) in
      t.pool.(slot) <- dummy;
      t.pool_free.(t.pool_nfree) <- slot;
      t.pool_nfree <- t.pool_nfree + 1;
      h
    end
  in
  h.status <- (if h.status = queued then idle else idle_cancelled);
  h

let check_time t time =
  if time < t.clock then
    (invalid_arg
       (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
          time t.clock)
    [@osiris.alloc_ok "cold error path: raises, never returns"])

let schedule_at t ~time fn =
  check_time t time;
  let h =
    ({ status = idle; fn }
    [@osiris.alloc_ok
      "the one handle per scheduled event; callers that re-arm one \
       handle use [reschedule] instead"])
  in
  push t ~time h;
  h

let schedule t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) fn

let is_queued h = h.status >= queued

let reschedule_at t ~time h =
  if is_queued h then
    (invalid_arg "Engine.reschedule_at: handle is still queued"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  check_time t time;
  push t ~time h

let reschedule t ~delay h =
  if delay < 0 then
    (invalid_arg "Engine.reschedule: negative delay"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  reschedule_at t ~time:(t.clock + delay) h

(* Only marked: the entry keeps its (time, seq) until [take] drops it
   there. *)
let cancel (_ : t) h = if h.status = queued then h.status <- queued_cancelled

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
      go (if h.status = idle_cancelled then acc else h :: acc)
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
        if h.status = idle_cancelled then `Skipped
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
