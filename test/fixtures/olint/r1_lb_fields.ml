(* R1 fixture: the REPS balancer's entropy-ring pointers and cached-path
   bitmap have one writer (lib/lb/reps.ml); these foreign assignments
   must be flagged. *)

type r = { mutable ent_head : int; mutable ent_tail : int; mutable cached : int }

let poke r =
  r.ent_head <- 0;
  r.ent_tail <- r.ent_tail + 1;
  r.cached <- r.cached lor 1
