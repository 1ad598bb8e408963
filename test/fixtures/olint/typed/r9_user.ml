(* R9 fixture: [unused] is referenced nowhere and no call passes its
   [?bias]; both must be flagged. Its calls reach r9_lib through a
   top-level and a local module alias. *)

module L = R9_lib

let unused ?bias x =
  let module U = L in
  U.used (L.knob ~scale:2 ?bias x)
