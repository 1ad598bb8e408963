type t = { eng : Engine.t; mutable queue : Process.resumer list }

let create eng = { eng; queue = [] }

let wait t =
  Process.suspend t.eng (fun resume -> t.queue <- resume :: t.queue)

let wait_then t a k =
  t.queue <-
    (Process.await a k :: t.queue
    [@osiris.alloc_ok "one list cell per wait, not per item the waiter handles"])

let broadcast t =
  let woken = List.rev t.queue in
  t.queue <- [];
  List.iter (fun resume -> resume ()) woken
