type stats = {
  mutable busy_time : Time.t;
  mutable acquisitions : int;
  mutable wait_time : Time.t;
}

type waiter = { priority : int; seq : int; resume : Process.resumer }

type t = {
  eng : Engine.t;
  capacity : int;
  mutable held : int;
  mutable wseq : int;
  mutable waiters : waiter list; (* sorted by (priority, seq) *)
  mutable last_change : Time.t;
  stats : stats;
}

let create eng ~capacity =
  if capacity < 1 then invalid_arg "Resource.create: capacity < 1";
  {
    eng;
    capacity;
    held = 0;
    wseq = 0;
    waiters = [];
    last_change = Engine.now eng;
    stats = { busy_time = 0; acquisitions = 0; wait_time = 0 };
  }

let account t =
  let now = Engine.now t.eng in
  t.stats.busy_time <- t.stats.busy_time + (t.held * (now - t.last_change));
  t.last_change <- now

let insert_waiter t w =
  let rec ins = function
    | [] -> [ w ]
    | x :: rest ->
        if
          w.priority < x.priority
          || (w.priority = x.priority && w.seq < x.seq)
        then w :: x :: rest
        else x :: ins rest
  in
  t.waiters <- ins t.waiters

(* The grant rule, one for both forms: a unit is free and nobody waits
   ahead. *)
let grant t =
  if t.held < t.capacity && t.waiters = [] then begin
    account t;
    t.held <- t.held + 1;
    t.stats.acquisitions <- t.stats.acquisitions + 1;
    true
  end
  else false

(* A waiter joins in (priority, seq) order; [release] hands it the unit
   and calls [resume], which schedules the waiter's one hop. *)
let enqueue_waiter t ~priority resume =
  let w = { priority; seq = t.wseq; resume } in
  t.wseq <- t.wseq + 1;
  insert_waiter t w

(* Back from the wait, holding the unit [release] transferred. *)
let granted t ~started =
  t.stats.wait_time <- t.stats.wait_time + (Engine.now t.eng - started);
  t.stats.acquisitions <- t.stats.acquisitions + 1

let acquire ?(priority = 0) t =
  if not (grant t) then begin
    let started = Engine.now t.eng in
    Process.suspend t.eng (enqueue_waiter t ~priority);
    granted t ~started
  end

let acquire_then ?priority t a k =
  if grant t then
    (k ()
    [@osiris.alloc_ok
      "the continuation is the caller's next step: what it allocates is \
       that step's budget, checked where the step is"])
  else begin
    let started = Engine.now t.eng in
    let priority = match priority with Some p -> p | None -> 0 in
    (enqueue_waiter t ~priority
       (Process.await a (fun () ->
            granted t ~started;
            k ()))
    [@osiris.alloc_ok
      "a contended acquire: the waiter's record, its place in the queue \
       and its step, the price of a suspension"])
  end

let release t =
  if t.held <= 0 then invalid_arg "Resource.release: not held";
  account t;
  match t.waiters with
  | [] -> t.held <- t.held - 1
  | w :: rest ->
      (* Hand the unit straight to the first waiter: [held] stays. *)
      t.waiters <- rest;
      w.resume ()

let use ?priority t ~duration =
  acquire ?priority t;
  Process.sleep t.eng duration;
  release t

let use_then ?priority t a ~duration k =
  acquire_then ?priority t a
    (fun () ->
      Process.sleep_then a duration (fun () ->
          release t;
          k ()))
  [@osiris.alloc_ok
    "a transaction's two steps, the hold and the release: the price of a \
     shared bus, per transaction"]

let stats t =
  account t;
  t.stats
