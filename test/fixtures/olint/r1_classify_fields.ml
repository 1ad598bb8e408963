(* R1 fixture: the classification table's slot arrays and probe counters
   have one writer (lib/classify/table.ml); these foreign assignments
   must be flagged. *)

type 'a t = {
  mutable c_count : int;
  mutable c_maxd : int;
  mutable c_lookups : int;
}

let poke t =
  t.c_count <- 0;
  t.c_maxd <- t.c_maxd + 1;
  t.c_lookups <- t.c_lookups + 1
