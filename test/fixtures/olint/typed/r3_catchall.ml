(* R3 fixture: catch-all handler and exit in library code; never
   called. *)
let swallow f = try f () with _ -> ()
let bail () = Stdlib.exit 1
