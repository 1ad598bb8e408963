(* R4 fixture: no sibling .mli. *)
let answer = 42
