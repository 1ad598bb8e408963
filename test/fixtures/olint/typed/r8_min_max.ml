(* R8 fixture: Stdlib's min and max, bare, qualified or through an alias,
   are flagged (S.exit is R3's); Int's, a float compare, a local min not. *)
let clamp x = min 10 (max 0 x)
let top x y = Stdlib.max x y
let fine x = Int.min 10 (Int.max 0 x)
let fmin (a : float) b = if a <= b then a else b
module S = Stdlib
let low x y = S.min x y
let quit () = S.exit 2
let min (a : int) b = if a <= b then a else b
let least = min 3 4
