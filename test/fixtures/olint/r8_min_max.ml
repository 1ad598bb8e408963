(* R8 fixture: Stdlib's polymorphic min and max, bare and qualified, are
   flagged; Int.min, Int.max and a float compare written out are not. *)
let clamp x = min 10 (max 0 x)
let top x y = Stdlib.max x y
let fine x = Int.min 10 (Int.max 0 x)
let fmin (a : float) b = if a <= b then a else b
