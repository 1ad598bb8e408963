(* R1 fixture: the engine's heap length, same-instant FIFO pointers and
   handle statuses belong to lib/sim/engine.ml alone; writing them from
   outside must be flagged. *)

type q = {
  mutable heap_len : int;
  mutable fifo_first : int;
  mutable fifo_len : int;
}

type h = { mutable status : int }

let poke q h =
  q.heap_len <- 0;
  q.fifo_first <- q.fifo_first + 1;
  q.fifo_len <- 0;
  h.status <- 0
