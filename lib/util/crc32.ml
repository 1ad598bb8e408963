(* Slicing-by-4 over native ints: [table] holds four 256-entry tables
   back to back. Table 0 is the classic bytewise table; entry [n] of
   table [k] is the CRC contribution of byte [n] followed by [k] zero
   bytes, so one little-endian word is folded with four lookups. The
   CRC stays in the low 32 bits of an [int]; only the result is boxed. *)
let table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to 1023 do
    let prev = t.(n - 256) in
    t.(n) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let init = 0xFFFFFFFFl

(* The tail, one byte at a time. *)
let rec bytewise b i stop c =
  if i >= stop then c
  else
    bytewise b (i + 1) stop
      (table.((c lxor Char.code (Bytes.get b i)) land 0xff) lxor (c lsr 8))

(* Whole words from [i] up to [stop]; [stop - i] is a multiple of 4. *)
let rec wordwise b i stop c =
  if i >= stop then c
  else
    let c = c lxor (Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF) in
    wordwise b (i + 4) stop
      (table.(768 + (c land 0xff))
      lxor table.(512 + ((c lsr 8) land 0xff))
      lxor table.(256 + ((c lsr 16) land 0xff))
      lxor table.(c lsr 24))

let update crc b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    (invalid_arg "Crc32: region out of bounds"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  let words_end = off + (len land lnot 3) in
  let c = wordwise b off words_end (Int32.to_int crc land 0xFFFFFFFF) in
  (Int32.of_int (bytewise b words_end (off + len) c)
  [@osiris.alloc_ok "the one boxed int32 result per call"])

(* A zero byte folds in as [table.(c land 0xff) lxor (c lsr 8)]. *)
let rec zeros n c =
  if n = 0 then c else zeros (n - 1) (table.(c land 0xff) lxor (c lsr 8))

let update_zeros crc ~len =
  if len < 0 then
    (invalid_arg "Crc32: negative length"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  (Int32.of_int (zeros len (Int32.to_int crc land 0xFFFFFFFF))
  [@osiris.alloc_ok "the one boxed int32 result per call"])

let finalize crc =
  (Int32.logxor crc 0xFFFFFFFFl
  [@osiris.alloc_ok "the one boxed int32 result per call"])

let compute b ~off ~len = finalize (update init b ~off ~len)
