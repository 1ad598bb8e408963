(* The splitmix64 state lives unboxed in 8 bytes: a draw reads, advances
   and writes it back without allocating (a [mutable int64] field would
   box a fresh state on every draw). *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z =
    Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
  [@@osiris.alloc_ok "unboxed: mix is inlined, the int64 stays in a register"]
  in
  let z =
    Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
  [@@osiris.alloc_ok "unboxed: mix is inlined, the int64 stays in a register"]
  in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let s =
    Int64.add (Bytes.get_int64_ne t 0) golden
  [@@osiris.alloc_ok "unboxed: next is inlined, the int64 stays in a register"]
  in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (next t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for n
     far below 2^62. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. u /. 9007199254740992.0 (* 2^53 *)

(* [float t 1.0 < p] to the bit: multiplying by 1.0 and dividing an
   integer below 2^53 by 2^53 are exact. Returning the comparison keeps
   the draw in a register, where [float] boxes its result. *)
let bernoulli t p =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
  < p

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
