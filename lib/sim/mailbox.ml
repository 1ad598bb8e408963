type 'a t = {
  eng : Engine.t;
  capacity : int;
  items : 'a Queue.t;
  senders : Process.resumer Queue.t;
  receivers : Process.resumer Queue.t;
}

let create eng ?(capacity = max_int) () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity < 1";
  {
    eng;
    capacity;
    items = Queue.create ();
    senders = Queue.create ();
    receivers = Queue.create ();
  }

let length t = Queue.length t.items
let is_full t = Queue.length t.items >= t.capacity

let wake q =
  if not (Queue.is_empty q) then
    ((Queue.take q) ()
    [@osiris.alloc_ok "a waiter's resumer: the one hop its wake-up is"])

let try_send t v =
  if is_full t then false
  else begin
    (Queue.add v t.items
    [@osiris.alloc_ok "the item's queue cell: the mailbox's storage"]);
    wake t.receivers;
    true
  end

let rec send t v =
  if try_send t v then ()
  else begin
    Process.suspend t.eng (fun resume -> Queue.add resume t.senders);
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
    (Queue.add (Process.await a (fun () -> send_then t v a k)) t.senders
    [@osiris.alloc_ok
      "a full mailbox: the retry step, the engine event a suspension is"])

(* The oldest item, which must exist; its slot frees a blocked sender. *)
let take t =
  let v = Queue.take t.items in
  wake t.senders;
  v

let try_recv t = if Queue.is_empty t.items then None else Some (take t)

let rec recv t =
  match try_recv t with
  | Some v -> v
  | None ->
      Process.suspend t.eng (fun resume -> Queue.add resume t.receivers);
      recv t

(* [recv]'s events without the fiber: an item at hand is taken now; else
   the waker's [try_send] schedules one hop, which retries. *)
let rec recv_then t a k =
  if Queue.is_empty t.items then
    (Queue.add (Process.await a (fun () -> recv_then t a k)) t.receivers
    [@osiris.alloc_ok
      "an empty mailbox: the retry step, the engine event a suspension is"])
  else
    (k (take t)
    [@osiris.alloc_ok
      "the continuation is the caller's next step: what it allocates is \
       that step's budget, checked where the step is"])
