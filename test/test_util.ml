(* Tests for checksums, CRC, RNG and statistics. *)

open Osiris_util

let bytes_gen = QCheck.(map Bytes.of_string (string_of_size Gen.(0 -- 200)))

let checksum_verify_roundtrip =
  QCheck.Test.make ~name:"checksum: computed region verifies" ~count:300
    QCheck.(map Bytes.of_string (string_of_size Gen.(2 -- 200)))
    (fun b ->
      (* Place a checksum over the whole region in its first two bytes. *)
      Bytes.set b 0 '\000';
      Bytes.set b 1 '\000';
      let c = Checksum.compute b ~off:0 ~len:(Bytes.length b) in
      Bytes.set b 0 (Char.chr (c lsr 8));
      Bytes.set b 1 (Char.chr (c land 0xff));
      Checksum.verify b ~off:0 ~len:(Bytes.length b))

let checksum_detects_corruption =
  QCheck.Test.make ~name:"checksum: single-byte corruption detected"
    ~count:300
    QCheck.(pair (map Bytes.of_string (string_of_size Gen.(4 -- 100))) small_nat)
    (fun (b, i) ->
      Bytes.set b 0 '\000';
      Bytes.set b 1 '\000';
      let c = Checksum.compute b ~off:0 ~len:(Bytes.length b) in
      Bytes.set b 0 (Char.chr (c lsr 8));
      Bytes.set b 1 (Char.chr (c land 0xff));
      let i = 2 + (i mod (Bytes.length b - 2)) in
      let orig = Char.code (Bytes.get b i) in
      (* One's-complement arithmetic cannot distinguish 0x00 from 0xff in
         some positions; flip to a guaranteed-different class. *)
      let flipped = orig lxor 0x55 in
      QCheck.assume (flipped <> orig && not (orig = 0x00 && flipped = 0xff)
                     && not (orig = 0xff && flipped = 0x00));
      Bytes.set b i (Char.chr flipped);
      not (Checksum.verify b ~off:0 ~len:(Bytes.length b)))

(* Reference model: the byte-pair loop that [ones_complement_sum]'s
   word loop replaced, kept here as its oracle. *)
let checksum_model b ~off ~len =
  let sum = ref 0 and i = ref off in
  while !i + 1 < off + len do
    sum := !sum + (Char.code (Bytes.get b !i) lsl 8) + Char.code (Bytes.get b (!i + 1));
    i := !i + 2
  done;
  if !i < off + len then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  let s = ref !sum in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  !s

(* Every length 0–9 at every start offset mod 4, over bytes that make
   the word sums carry, and the all-zero and all-0xff buffers where
   0 and 0xffff must stay apart. *)
let test_checksum_short_ranges () =
  let fills =
    [
      Bytes.init 16 (fun i -> Char.chr (((i * 83) + 0xa5) land 0xff));
      Bytes.make 16 '\000';
      Bytes.make 16 '\xff';
    ]
  in
  List.iter
    (fun b ->
      for off = 0 to 3 do
        for len = 0 to 9 do
          Alcotest.(check int)
            (Printf.sprintf "off %d len %d" off len)
            (checksum_model b ~off ~len)
            (Checksum.ones_complement_sum b ~off ~len)
        done
      done)
    fills

let checksum_matches_model =
  QCheck.Test.make ~name:"checksum: word sum = byte-pair model" ~count:500
    QCheck.(triple bytes_gen small_nat small_nat)
    (fun (b, off, len) ->
      let n = Bytes.length b in
      let off = if n = 0 then 0 else off mod (n + 1) in
      let len = if n - off = 0 then 0 else len mod (n - off + 1) in
      Checksum.ones_complement_sum b ~off ~len = checksum_model b ~off ~len)

(* Reference model: the bytewise loop over a boxed [Int32] that
   [Crc32.update] replaced, kept here as the oracle for the word loop. *)
let crc32_model_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let crc32_model_update crc b ~off ~len =
  let c = ref crc in
  for i = off to off + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand
           (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i))))
           0xFFl)
    in
    c := Int32.logxor crc32_model_table.(idx) (Int32.shift_right_logical !c 8)
  done;
  !c

let crc32_model b ~off ~len =
  Int32.logxor (crc32_model_update 0xFFFFFFFFl b ~off ~len) 0xFFFFFFFFl

(* [Crc32.compute], and [Crc32.update] split at [cut] then finalized,
   against the model on [b]'s sub-range [off, off+len). *)
let crc32_agrees b ~off ~len ~cut =
  let want = crc32_model b ~off ~len in
  let acc = Crc32.update Crc32.init b ~off ~len:cut in
  let acc = Crc32.update acc b ~off:(off + cut) ~len:(len - cut) in
  Crc32.compute b ~off ~len = want && Crc32.finalize acc = want

let test_crc32_vector () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32) "known vector" 0xCBF43926l
    (Crc32.compute b ~off:0 ~len:9)

(* Random sub-ranges of random buffers. Short lengths are drawn often, so
   the bytewise tail, a range shorter than one word and every start
   offset modulo 4 are all hit. *)
let crc32_matches_model =
  QCheck.Test.make ~name:"crc32: matches the bytewise model" ~count:1000
    QCheck.(
      quad
        (map Bytes.of_string (string_of_size Gen.(0 -- 300)))
        (make Gen.(oneof [ 0 -- 7; 0 -- 300 ]))
        small_nat small_nat)
    (fun (b, len, off, cut) ->
      let n = Bytes.length b in
      let off = off mod (n + 1) in
      let len = min len (n - off) in
      crc32_agrees b ~off ~len ~cut:(cut mod (len + 1)))

let test_crc32_short_ranges () =
  (* Every length 0-7 (and a few words beyond) at every start offset
     modulo 4, every cut. *)
  let b = Bytes.init 64 (fun i -> Char.chr (((i * 151) + 7) land 0xff)) in
  for off = 0 to 7 do
    for len = 0 to 19 do
      for cut = 0 to len do
        if not (crc32_agrees b ~off ~len ~cut) then
          Alcotest.failf "crc32 differs from the model at off=%d len=%d cut=%d"
            off len cut
      done
    done
  done

let crc32_incremental =
  QCheck.Test.make ~name:"crc32: incremental = one-shot" ~count:200
    QCheck.(pair bytes_gen small_nat)
    (fun (b, cut) ->
      let n = Bytes.length b in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let oneshot = Crc32.compute b ~off:0 ~len:n in
      let acc = Crc32.update Crc32.init b ~off:0 ~len:cut in
      let acc = Crc32.update acc b ~off:cut ~len:(n - cut) in
      Crc32.finalize acc = oneshot)

let crc32_detects_corruption =
  QCheck.Test.make ~name:"crc32: corruption detected" ~count:200
    QCheck.(pair (map Bytes.of_string (string_of_size Gen.(1 -- 100))) small_nat)
    (fun (b, i) ->
      let n = Bytes.length b in
      let before = Crc32.compute b ~off:0 ~len:n in
      let i = i mod n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      Crc32.compute b ~off:0 ~len:n <> before)

let test_rng_determinism () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.float r 3.0 in
    Alcotest.(check bool) "float range" true (v >= 0.0 && v < 3.0)
  done

(* [bernoulli t p] promises [float t 1.0 < p], draw for draw: two streams
   from one seed must agree at both ends of [0, 1] and at the smallest
   positive probability a 53-bit draw can resolve. *)
let test_rng_bernoulli_is_float_draw () =
  List.iter
    (fun p ->
      let a = Rng.create ~seed:23 and b = Rng.create ~seed:23 in
      for _ = 1 to 10_000 do
        Alcotest.(check bool)
          (Printf.sprintf "p = %h" p)
          (Rng.float b 1.0 < p) (Rng.bernoulli a p)
      done)
    [ 0.0; ldexp 1.0 (-53); 0.25; 0.5; 1.0 ]

let test_rng_split_independent () =
  let parent = Rng.create ~seed:1 in
  let child = Rng.split parent in
  let a = Rng.bits64 parent and b = Rng.bits64 child in
  Alcotest.(check bool) "distinct streams" true (a <> b)

let test_shuffle_permutation () =
  let r = Rng.create ~seed:3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

(* Every stream pinned: the first 2,000 draws of each entry point for
   seeds 0-9, digested per entry point. The digests were recorded
   before the generator's state moved out of a boxed [int64], so any
   change to what a seed produces fails here. *)
let rng_stream_digest kind =
  let buf = Buffer.create 65536 in
  for seed = 0 to 9 do
    let r = Rng.create ~seed in
    (match kind with
    | `Shuffle ->
        let arr = Array.init 2001 (fun i -> i) in
        Rng.shuffle r arr;
        Array.iter (fun v -> Printf.bprintf buf "%d," v) arr
    | _ ->
        let bounds = [| 1; 2; 3; 7; 44; 1000; 1 lsl 30; max_int |] in
        for i = 0 to 1999 do
          match kind with
          | `Bits64 -> Printf.bprintf buf "%Ld," (Rng.bits64 r)
          | `Int ->
              Printf.bprintf buf "%d,"
                (Rng.int r bounds.(i mod Array.length bounds))
          | `Float -> Printf.bprintf buf "%h," (Rng.float r 3.5)
          | `Bool -> Buffer.add_char buf (if Rng.bool r then '1' else '0')
          | `Split ->
              let child = Rng.split r in
              Printf.bprintf buf "%Ld," (Rng.bits64 child)
          | `Shuffle -> ()
        done)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_rng_streams_pinned () =
  List.iter
    (fun (name, kind, want) ->
      Alcotest.(check string) name want (rng_stream_digest kind))
    [
      ("bits64", `Bits64, "638258138a7933cd21eac6acc43237f8");
      ("int", `Int, "0df1eae5b16f80d247328de92f45842a");
      ("float", `Float, "072f03b6c3ad16daaeea62ef35c9d65a");
      ("bool", `Bool, "aca09bc24b5963e51c11f92b11593394");
      ("split", `Split, "f6864d7415d032f2e29c6d3c21d8563e");
      ("shuffle", `Shuffle, "2d4e982319c16b6ad35ee5eef5c339c9");
    ]

let test_stats_reference () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "variance (sample)" (32.0 /. 7.0)
    (Stats.variance s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s);
  Alcotest.(check int) "count" 8 (Stats.count s)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:100 in
  for i = 1 to 100 do
    Stats.Histogram.add h (float_of_int i -. 0.5)
  done;
  Alcotest.(check (float 1.01)) "median" 50.0
    (Stats.Histogram.percentile h 50.0);
  Alcotest.(check (float 1.01)) "p99" 99.0
    (Stats.Histogram.percentile h 99.0)

let test_units () =
  Alcotest.(check (float 1e-6)) "mbps" 8.0
    (Osiris_experiments.Report.mbps ~bytes_count:1_000_000 ~ns:1_000_000_000)

let suite =
  [
    QCheck_alcotest.to_alcotest checksum_verify_roundtrip;
    QCheck_alcotest.to_alcotest checksum_detects_corruption;
    Alcotest.test_case "checksum: short ranges at every alignment" `Quick
      test_checksum_short_ranges;
    QCheck_alcotest.to_alcotest checksum_matches_model;
    Alcotest.test_case "crc32: known vector" `Quick test_crc32_vector;
    QCheck_alcotest.to_alcotest crc32_matches_model;
    Alcotest.test_case "crc32: short ranges at every alignment" `Quick
      test_crc32_short_ranges;
    QCheck_alcotest.to_alcotest crc32_incremental;
    QCheck_alcotest.to_alcotest crc32_detects_corruption;
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: bernoulli is the float draw" `Quick
      test_rng_bernoulli_is_float_draw;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick
      test_shuffle_permutation;
    Alcotest.test_case "rng: streams pinned" `Quick test_rng_streams_pinned;
    Alcotest.test_case "stats: reference values" `Quick test_stats_reference;
    Alcotest.test_case "stats: histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "units: mbps" `Quick test_units;
  ]
