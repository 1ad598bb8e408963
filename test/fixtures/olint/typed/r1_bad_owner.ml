(* R1 fixture: assigns a policy-owned field outside its declared writer
   file. *)
type q = { mutable head : int; mutable tail : int }

let bump (q : q) = q.head <- q.head + 1
