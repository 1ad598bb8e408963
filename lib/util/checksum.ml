let rec fold sum = if sum > 0xffff then fold ((sum land 0xffff) + (sum lsr 16)) else sum

(* Whole big-endian 32-bit words from [i] up to [stop]; [stop - i] is a
   multiple of 4. Since 2^16 = 1 in one's-complement arithmetic, a word
   adds what its two 16-bit halves add, and [fold] gives the same sum.
   An [int] holds 2^30 words' worth before it could overflow. *)
let rec words b i stop sum =
  if i >= stop then sum
  else
    words b (i + 4) stop
      (sum + (Int32.to_int (Bytes.get_int32_be b i) land 0xFFFFFFFF))

let ones_complement_sum b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    (invalid_arg "Checksum: region out of bounds"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  let stop = off + (len land lnot 3) in
  let sum = words b off stop 0 in
  (* Up to three tail bytes: a whole 16-bit half, then an odd byte
     padded with zero, as per RFC 1071. *)
  let sum =
    if len land 2 = 0 then sum
    else sum + (Char.code (Bytes.get b stop) lsl 8) + Char.code (Bytes.get b (stop + 1))
  in
  fold
    (if len land 1 <> 0 then sum + (Char.code (Bytes.get b (off + len - 1)) lsl 8)
     else sum)

let finish sum = lnot (fold sum) land 0xffff

let compute b ~off ~len = finish (ones_complement_sum b ~off ~len)

let verify b ~off ~len = fold (ones_complement_sum b ~off ~len) = 0xffff
