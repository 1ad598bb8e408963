(* A FIFO in an array ring whose length is a power of two. A vacated slot
   holds [empty], so the ring never pins an item or waiter it has handed
   out. *)
type 'a ring = {
  mutable buf : 'a array;
  mutable first : int;
  mutable len : int;
  empty : 'a;
}

let ring_create n empty =
  { buf = Array.make n empty; first = 0; len = 0; empty }

let ring_grow r =
  let cap = Array.length r.buf in
  let b = Array.make (2 * cap) r.empty in
  for i = 0 to r.len - 1 do
    b.(i) <- r.buf.((r.first + i) land (cap - 1))
  done;
  r.buf <- b;
  r.first <- 0

let ring_add r v =
  if r.len = Array.length r.buf then
    (ring_grow r
    [@osiris.alloc_ok
      "ring doubling: once per doubling of the deepest backlog, then reused"]);
  r.buf.((r.first + r.len) land (Array.length r.buf - 1)) <- v;
  r.len <- r.len + 1

(* The oldest entry, which must exist. *)
let ring_take r =
  let i = r.first in
  let v = r.buf.(i) in
  r.buf.(i) <- r.empty;
  r.first <- (i + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  v

type 'a t = {
  eng : Engine.t;
  capacity : int;
  items : 'a ring;
  senders : Process.resumer ring;
  receivers : Process.resumer ring;
}

let no_waiter : Process.resumer = ignore

let create eng ?(capacity = max_int) ~empty () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity < 1";
  {
    eng;
    capacity;
    items = ring_create 8 empty;
    senders = ring_create 1 no_waiter;
    receivers = ring_create 1 no_waiter;
  }

let length t = t.items.len
let is_full t = t.items.len >= t.capacity

let wake r =
  if r.len > 0 then
    ((ring_take r) ()
    [@osiris.alloc_ok "a waiter's resumer: the one hop its wake-up is"])

let try_send t v =
  if is_full t then false
  else begin
    ring_add t.items v;
    wake t.receivers;
    true
  end

let rec send t v =
  if try_send t v then ()
  else begin
    Process.suspend t.eng (ring_add t.senders);
    send t v
  end

(* [send]'s events without the fiber: a free slot is taken now; else
   the receiver that frees one schedules one hop, which retries. *)
let rec send_then t v a k =
  if try_send t v then
    (k ()
    [@osiris.alloc_ok
      "the continuation is the caller's next step: what it allocates is \
       that step's budget, checked where the step is"])
  else
    ring_add t.senders
      (Process.await a (fun () -> send_then t v a k)
      [@osiris.alloc_ok
        "a full mailbox: the retry step, the engine event a suspension is"])

(* The oldest item, which must exist; its slot frees a blocked sender. *)
let take t =
  let v = ring_take t.items in
  wake t.senders;
  v

let try_recv t = if t.items.len = 0 then None else Some (take t)

let rec recv t =
  match try_recv t with
  | Some v -> v
  | None ->
      Process.suspend t.eng (ring_add t.receivers);
      recv t

(* [recv]'s events without the fiber: an item at hand is taken now; else
   the waker's [try_send] schedules one hop, which retries. *)
let rec recv_then t a k =
  if t.items.len = 0 then
    ring_add t.receivers
      (Process.await a (fun () -> recv_then t a k)
      [@osiris.alloc_ok
        "an empty mailbox: the retry step, the engine event a suspension is"])
  else
    (k (take t)
    [@osiris.alloc_ok
      "the continuation is the caller's next step: what it allocates is \
       that step's budget, checked where the step is"])
