type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000
let of_float_us x = int_of_float (Float.round (x *. 1e3))
let to_float_us t = float_of_int t /. 1e3

let pp fmt t =
  let f = float_of_int t in
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)
