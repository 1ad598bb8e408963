(* R1 fixture: the engine's heap length and same-instant FIFO pointers
   belong to lib/sim/engine.ml alone; writing them from outside must be
   flagged. *)

let poke q =
  q.heap_len <- 0;
  q.fifo_first <- q.fifo_first + 1;
  q.fifo_len <- 0
