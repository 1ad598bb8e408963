open Osiris_sim
module Metrics = Osiris_obs.Metrics

type locking = Lock_free | Spin_lock

type direction = Host_to_board | Board_to_host

type hooks = {
  host_pio_read : int -> unit;
  host_pio_write : int -> unit;
  board_access : int -> Time.t;
}

let free_hooks =
  {
    host_pio_read = (fun _ -> ());
    host_pio_write = (fun _ -> ());
    board_access = (fun _ -> 0);
  }

type access_stats = {
  host_reads : int;
  host_writes : int;
  board_words : int;
  shadow_hits : int;
}

(* Live accounting lives in registry counters; [access_stats] snapshots
   them into the record callers have always read. *)
type m = {
  m_host_reads : Metrics.counter;
  m_host_writes : Metrics.counter;
  m_board_words : Metrics.counter;
  m_shadow_hits : Metrics.counter;
}

let make_metrics prefix =
  {
    m_host_reads = Metrics.counter (prefix ^ ".host_pio_reads");
    m_host_writes = Metrics.counter (prefix ^ ".host_pio_writes");
    m_board_words = Metrics.counter (prefix ^ ".board_words");
    m_shadow_hits = Metrics.counter (prefix ^ ".shadow_hits");
  }

(* Checker-validation seams (see Osiris_check): each mutation breaks the
   single-writer / stale-but-safe discipline in a way only visible on some
   interleavings, so the schedule explorer can prove it catches what
   straight-line tests miss. Production paths always run [No_mutation]. *)
type test_mutation =
  | No_mutation
  | Torn_tail_publish
      (* board_dequeue publishes the tail pointer first and clears the
         slot (and counts the dequeue) in a separate same-instant event *)
  | Eager_shadow_tail
      (* the host's full-check shadow refresh reads one slot past the
         board's tail — an optimistic/torn read of an in-flight update *)

type t = {
  eng : Engine.t;
  size : int;
  direction : direction;
  locking : locking;
  hooks : hooks;
  slots : Desc.t option array;
  mutable head : int; (* next slot the writer fills *)
  mutable tail : int; (* next slot the reader drains *)
  (* Host-side shadow copies of the pointer the other side owns. *)
  mutable shadow_head : int;
  mutable shadow_tail : int;
  mutable host_waiting : bool;
  mutable n_enq : int;
  mutable n_deq : int;
  lock : Resource.t option;
  mutable on_enqueue : unit -> unit;
  mutable mutation : test_mutation;
  dequeued : Signal.t;
  m : m;
}

let create eng ?(metrics_prefix = "queue") ~size ~direction ~locking ~hooks ()
    =
  if size < 2 then invalid_arg "Desc_queue.create: size must be >= 2";
  {
    eng;
    size;
    direction;
    locking;
    hooks;
    slots = Array.make size None;
    head = 0;
    tail = 0;
    shadow_head = 0;
    shadow_tail = 0;
    host_waiting = false;
    n_enq = 0;
    n_deq = 0;
    lock =
      (match locking with
      | Lock_free -> None
      | Spin_lock -> Some (Resource.create eng ~capacity:1));
    on_enqueue = (fun () -> ());
    mutation = No_mutation;
    dequeued = Signal.create eng;
    m = make_metrics metrics_prefix;
  }

let size t = t.size

(* [head] and [tail] are in [0, size): a compare, not a division. The
   board's transmit scan asks this of every open channel it passes. *)
let count t =
  let n = t.head - t.tail in
  if n < 0 then n + t.size else n

let total_enqueued t = t.n_enq
let total_dequeued t = t.n_deq
let is_empty t = t.head = t.tail
let is_full t = (t.head + 1) mod t.size = t.tail
let set_on_enqueue t f = t.on_enqueue <- f
let dequeued t = t.dequeued

let access_stats t : access_stats =
  {
    host_reads = Metrics.counter_value t.m.m_host_reads;
    host_writes = Metrics.counter_value t.m.m_host_writes;
    board_words = Metrics.counter_value t.m.m_board_words;
    shadow_hits = Metrics.counter_value t.m.m_shadow_hits;
  }

let host_read t n =
  Metrics.add t.m.m_host_reads n;
  t.hooks.host_pio_read n

let host_write t n =
  Metrics.add t.m.m_host_writes n;
  t.hooks.host_pio_write n

(* The board's dual-port access: count the words, then sleep for their
   access time; a free access (0) does not sleep at all. *)
let board_touch_then t n a k =
  Metrics.add t.m.m_board_words n;
  let d =
    (t.hooks.board_access n
    [@osiris.alloc_ok "the access-time hook: arithmetic on the board's config"])
  in
  if d = 0 then
    (k ()
    [@osiris.alloc_ok
      "the continuation is the caller's next step: what it allocates is \
       that step's budget, checked where the step is"])
  else Process.sleep_then a d k

let with_host_lock t f =
  match t.lock with
  | None -> f ()
  | Some lock ->
      host_read t 1 (* test-and-set attempt *);
      Resource.acquire lock;
      Fun.protect ~finally:(fun () ->
          host_write t 1 (* release store *);
          Resource.release lock)
        f

(* The board side of the spin lock around [body]: touch, acquire, the
   body, touch, release, then [k] with the body's result. Only the
   ablation's [Spin_lock] queues pay its closures. *)
let with_board_lock_then t lock a body k =
  board_touch_then t 1 a (fun () ->
      Resource.acquire_then lock a (fun () ->
          body (fun r ->
              board_touch_then t 1 a (fun () ->
                  Resource.release lock;
                  k r))))

(* Host view of fullness: the host owns/caches head, shadows tail. Under
   the spin lock both pointers are re-read every time. *)
let host_sees_full t =
  match t.locking with
  | Spin_lock ->
      host_read t 2;
      is_full t
  | Lock_free ->
      if (t.head + 1) mod t.size <> t.shadow_tail then begin
        Metrics.incr t.m.m_shadow_hits;
        false
      end
      else begin
        host_read t 1;
        (match t.mutation with
        | Eager_shadow_tail -> t.shadow_tail <- (t.tail + 1) mod t.size
        | _ -> t.shadow_tail <- t.tail);
        (* Fullness as the host perceives it: through the just-refreshed
           shadow (identical to [is_full] when the refresh is faithful). *)
        (t.head + 1) mod t.size = t.shadow_tail
      end

let host_sees_empty t =
  match t.locking with
  | Spin_lock ->
      host_read t 2;
      is_empty t
  | Lock_free ->
      if t.shadow_head <> t.tail then begin
        Metrics.incr t.m.m_shadow_hits;
        false
      end
      else begin
        host_read t 1;
        t.shadow_head <- t.head;
        is_empty t
      end

let require t dir what =
  if t.direction <> dir then
    (invalid_arg (Printf.sprintf "Desc_queue.%s: wrong direction" what)
    [@osiris.alloc_ok "cold error path: raises, never returns"])

let host_enqueue t d =
  require t Host_to_board "host_enqueue";
  with_host_lock t (fun () ->
      if host_sees_full t then false
      else begin
        t.slots.(t.head) <- Some d;
        host_write t Desc.words;
        t.head <- (t.head + 1) mod t.size;
        t.n_enq <- t.n_enq + 1;
        host_write t 1 (* head pointer *);
        t.on_enqueue ();
        true
      end)

let host_dequeue t =
  require t Board_to_host "host_dequeue";
  with_host_lock t (fun () ->
      if host_sees_empty t then None
      else begin
        let d = t.slots.(t.tail) in
        host_read t Desc.words;
        t.slots.(t.tail) <- None;
        t.tail <- (t.tail + 1) mod t.size;
        t.n_deq <- t.n_deq + 1;
        host_write t 1 (* tail pointer *);
        Signal.broadcast t.dequeued;
        d
      end)

(* The board-side operations are callback forms for the board's agents
   ([Process.agent]). Each does its work in the order the blocking form
   did: the slots and pointers change first, then the access sleeps,
   then the enqueue hook and the broadcast run, then [k] gets the
   result. With free hooks and no lock contention, [k] runs inline. *)

let enqueue_body t a d k =
  if is_full t then
    board_touch_then t 1 a (fun () -> k false)
    [@osiris.alloc_ok "the step after the access's sleep: one closure"]
  else begin
    t.slots.(t.head) <-
      (Some d [@osiris.alloc_ok "the slot's option box: one per descriptor"]);
    t.head <- (t.head + 1) mod t.size;
    t.n_enq <- t.n_enq + 1;
    board_touch_then t (Desc.words + 2) (* descriptor + both pointers *) a
      (fun () ->
        t.on_enqueue ();
        k true)
    [@osiris.alloc_ok
      "the step after the access's sleep: one closure, which runs the \
       board's enqueue hook"]
  end

let board_enqueue_then t a d k =
  require t Board_to_host "board_enqueue";
  match t.lock with
  | None -> enqueue_body t a d k
  | Some lock ->
      (with_board_lock_then t lock a (enqueue_body t a d) k
      [@osiris.alloc_ok "the spin-lock ablation: its steps' closures"])

let dequeue_body t a k =
  if is_empty t then
    board_touch_then t 1 a (fun () -> k None)
    [@osiris.alloc_ok "the step after the access's sleep: one closure"]
  else begin
    let d = t.slots.(t.tail) in
    match t.mutation with
    | Torn_tail_publish ->
        let slot = t.tail in
        t.tail <- (t.tail + 1) mod t.size;
        board_touch_then t (Desc.words + 2) a (fun () ->
            ignore
              (Engine.schedule t.eng ~delay:0 (fun () ->
                   t.slots.(slot) <- None;
                   t.n_deq <- t.n_deq + 1;
                   Signal.broadcast t.dequeued));
            k d)
        [@osiris.alloc_ok "a checker-validation mutation, never in production"]
    | _ ->
        t.slots.(t.tail) <- None;
        t.tail <- (t.tail + 1) mod t.size;
        t.n_deq <- t.n_deq + 1;
        board_touch_then t (Desc.words + 2) a (fun () ->
            Signal.broadcast t.dequeued;
            k d)
        [@osiris.alloc_ok
          "the step after the access's sleep: one closure, which wakes the \
           queue's waiters"]
  end

let board_dequeue_then t a k =
  require t Host_to_board "board_dequeue";
  match t.lock with
  | None -> dequeue_body t a k
  | Some lock ->
      (with_board_lock_then t lock a (dequeue_body t a) k
      [@osiris.alloc_ok "the spin-lock ablation: its steps' closures"])

let board_peek_then t a i k =
  require t Host_to_board "board_peek";
  if i < 0 then
    (invalid_arg "Desc_queue.board_peek: negative index"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  if i >= count t then
    (k None
    [@osiris.alloc_ok "the continuation is the caller's next step"])
  else begin
    (* Snapshot before charging access time: the tail can advance during
       the suspension (a concurrent completion), and the slot address must
       correspond to the tail observed when the access was issued. *)
    let v = t.slots.((t.tail + i) mod t.size) in
    board_touch_then t (Desc.words + 1) a (fun () -> k v)
    [@osiris.alloc_ok "the step after the access's sleep: one closure"]
  end

let advance_body t a n k =
  for _ = 1 to n do
    t.slots.(t.tail) <- None;
    t.tail <- (t.tail + 1) mod t.size;
    t.n_deq <- t.n_deq + 1
  done;
  if n > 0 then
    board_touch_then t 1 a (fun () ->
        Signal.broadcast t.dequeued;
        k ())
    [@osiris.alloc_ok
      "the step after the access's sleep: one closure, which wakes the \
       queue's waiters"]
  else (k () [@osiris.alloc_ok "the continuation is the caller's next step"])

let board_advance_then t a n k =
  require t Host_to_board "board_advance";
  if n < 0 || n > count t then
    (invalid_arg "Desc_queue.board_advance: advancing past the head"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  match t.lock with
  | None -> advance_body t a n k
  | Some lock ->
      (with_board_lock_then t lock a (advance_body t a n) k
      [@osiris.alloc_ok "the spin-lock ablation: its steps' closures"])

let host_probe_full t =
  require t Host_to_board "host_probe_full";
  with_host_lock t (fun () -> host_sees_full t)

let host_set_waiting t =
  require t Host_to_board "host_set_waiting";
  t.host_waiting <- true;
  host_write t 1

let board_test_waiting_then t a k =
  require t Host_to_board "board_test_waiting";
  board_touch_then t 1 a (fun () ->
      if t.host_waiting && count t <= t.size / 2 then begin
        t.host_waiting <- false;
        k true
      end
      else k false)

(* ------------------------------------------------------------------ *)
(* Cost-free inspection for Osiris_core.Invariants: neither function
   models dual-port accesses — they are the omniscient checker's view,
   not a host or board operation. *)

let set_test_mutation t m = t.mutation <- m

let contents t =
  let n = count t in
  List.filter_map Fun.id
    (List.init n (fun i -> t.slots.((t.tail + i) mod t.size)))

let check_invariants ?(name = "queue") t =
  let errs = ref [] in
  let err fmt =
    Printf.ksprintf (fun s -> errs := (name ^ ": " ^ s) :: !errs) fmt
  in
  if t.head < 0 || t.head >= t.size then err "head %d out of range" t.head;
  if t.tail < 0 || t.tail >= t.size then err "tail %d out of range" t.tail;
  if t.shadow_head < 0 || t.shadow_head >= t.size then
    err "shadow_head %d out of range" t.shadow_head;
  if t.shadow_tail < 0 || t.shadow_tail >= t.size then
    err "shadow_tail %d out of range" t.shadow_tail;
  let n = count t in
  if (t.n_enq - t.n_deq + t.size) mod t.size <> n mod t.size then
    err "enq/deq totals (%d/%d) disagree with occupancy %d" t.n_enq t.n_deq n;
  if t.n_enq < t.n_deq then err "more dequeues (%d) than enqueues (%d)" t.n_deq t.n_enq;
  (* Occupied slots are exactly [tail, tail+count). *)
  for i = 0 to t.size - 1 do
    let occupied = (i - t.tail + t.size) mod t.size < n in
    match t.slots.(i) with
    | Some _ when not occupied -> err "slot %d populated outside [tail,head)" i
    | None when occupied -> err "slot %d empty inside [tail,head)" i
    | _ -> ()
  done;
  (* Shadow safety: a shadow is a stale copy of the pointer the other side
     owns, so the occupancy computed from it must err toward "fuller"
     (transmit direction) / "emptier" (receive direction) than reality —
     the stale-but-safe discipline the lock-free design rests on. Under
     the spin lock the shadows are never read or refreshed, so their
     staleness is unconstrained and the check does not apply. *)
  (match if t.locking = Spin_lock then None else Some t.direction with
  | None -> ()
  | Some Host_to_board ->
      let perceived = (t.head - t.shadow_tail + t.size) mod t.size in
      if perceived < n then
        err "shadow_tail overtook tail (perceived occupancy %d < actual %d)"
          perceived n
  | Some Board_to_host ->
      let perceived = (t.shadow_head - t.tail + t.size) mod t.size in
      if perceived > n then
        err "shadow_head overtook head (perceived occupancy %d > actual %d)"
          perceived n);
  List.rev !errs
