(* Tests for physical memory, address spaces and physical buffers. *)

open Osiris_mem
module Rng = Osiris_util.Rng

let mk_mem ?scramble () =
  Phys_mem.create ?scramble ~size:(1 lsl 20) ~page_size:4096 ()

let test_alloc_free_cycle () =
  let mem = mk_mem () in
  let n = Phys_mem.free_frames mem in
  let a = Phys_mem.alloc_frame mem in
  let b = Phys_mem.alloc_frame mem in
  Alcotest.(check bool) "distinct frames" true (a <> b);
  Alcotest.(check int) "two allocated" (n - 2) (Phys_mem.free_frames mem);
  Phys_mem.free_frame mem a;
  Phys_mem.free_frame mem b;
  Alcotest.(check int) "all returned" n (Phys_mem.free_frames mem)

let test_double_free_rejected () =
  let mem = mk_mem () in
  let a = Phys_mem.alloc_frame mem in
  Phys_mem.free_frame mem a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.free_frame: double free") (fun () ->
      Phys_mem.free_frame mem a)

let test_exhaustion () =
  let mem = Phys_mem.create ~size:(4 * 4096) ~page_size:4096 () in
  for _ = 1 to 4 do
    ignore (Phys_mem.alloc_frame mem)
  done;
  Alcotest.check_raises "out of memory" Out_of_memory (fun () ->
      ignore (Phys_mem.alloc_frame mem))

let test_contiguous_alloc () =
  let mem = mk_mem () in
  match Phys_mem.alloc_contiguous mem ~nframes:4 with
  | None -> Alcotest.fail "empty memory must satisfy contiguous alloc"
  | Some base ->
      Alcotest.(check int) "page aligned" 0 (base mod 4096);
      (* The run must really be allocated: freeing each page works once. *)
      for i = 0 to 3 do
        Phys_mem.free_frame mem (base + (i * 4096))
      done

let test_rw_roundtrip () =
  let mem = mk_mem () in
  Phys_mem.write_byte mem 200 0xAB;
  Alcotest.(check int) "byte roundtrip" 0xAB (Phys_mem.read_byte mem 200)

let test_bounds_checked () =
  let mem = mk_mem () in
  Alcotest.(check bool) "oob read raises" true
    (try
       ignore (Phys_mem.read_byte mem (1 lsl 20));
       false
     with Invalid_argument _ -> true)

(* Pbuf properties. *)

let pbuf_coalesce_inverse_of_split =
  QCheck.Test.make ~name:"pbuf: coalesce undoes split" ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 2 5000))
    (fun (addr, len) ->
      let b = Pbuf.v ~addr ~len in
      let at = 1 + (addr mod (len - 1)) in
      let x = Pbuf.v ~addr ~len:at
      and y = Pbuf.v ~addr:(addr + at) ~len:(len - at) in
      Pbuf.coalesce [ x; y ] = [ b ])

let test_coalesce_non_adjacent () =
  let a = Pbuf.v ~addr:0 ~len:10 and b = Pbuf.v ~addr:20 ~len:10 in
  Alcotest.(check int) "gap not merged" 2 (List.length (Pbuf.coalesce [ a; b ]))

(* Vspace: the §2.2 facts. *)

let test_vspace_translate_roundtrip () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc vs ~len:10000 in
  (* Write through virtual translation, read back. *)
  let pa = Vspace.translate vs (v + 5000) in
  Phys_mem.write_byte mem pa 0x7e;
  Alcotest.(check int) "translated access" 0x7e
    (Phys_mem.read_byte mem (Vspace.translate vs (v + 5000)))

let test_vspace_scrambled_fragmentation () =
  (* With a scrambled allocator, a 4-page region decomposes into (almost
     certainly) 4 physical buffers; paper §2.2. *)
  let mem = mk_mem ~scramble:(Rng.create ~seed:5) () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc vs ~len:(4 * 4096) in
  let bufs = Vspace.phys_buffers vs ~vaddr:v ~len:(4 * 4096) in
  Alcotest.(check bool) "fragmented" true (List.length bufs >= 3);
  Alcotest.(check int) "extent preserved" (4 * 4096) (Pbuf.total_len bufs)

let test_vspace_sequential_is_contiguous () =
  (* Without scrambling, frames come out in order and coalesce. *)
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc vs ~len:(4 * 4096) in
  let bufs = Vspace.phys_buffers vs ~vaddr:v ~len:(4 * 4096) in
  Alcotest.(check int) "one physical buffer" 1 (List.length bufs)

let test_vspace_contiguous_alloc () =
  let mem = mk_mem ~scramble:(Rng.create ~seed:5) () in
  let vs = Vspace.create mem in
  match Vspace.alloc_contiguous vs ~len:(4 * 4096) with
  | None -> Alcotest.fail "contiguous alloc must succeed on fresh memory"
  | Some v ->
      let bufs = Vspace.phys_buffers vs ~vaddr:v ~len:(4 * 4096) in
      Alcotest.(check int) "one physical buffer" 1 (List.length bufs)

let test_vspace_offset_alloc () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc_offset vs ~len:100 ~offset:256 in
  Alcotest.(check int) "offset honoured" 256 (v mod 4096)

let test_vspace_free_returns_frames () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let before = Phys_mem.free_frames mem in
  let v = Vspace.alloc vs ~len:(8 * 4096) in
  Alcotest.(check int) "frames taken" (before - 8) (Phys_mem.free_frames mem);
  Vspace.free vs v;
  Alcotest.(check int) "frames back" before (Phys_mem.free_frames mem)

let test_page_fault () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  Alcotest.(check bool) "unmapped faults" true
    (try
       ignore (Vspace.translate vs 12345);
       false
     with Vspace.Page_fault _ -> true)

let test_wiring_counts () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc vs ~len:(3 * 4096) in
  Vspace.wire vs ~vaddr:v ~len:(3 * 4096);
  Alcotest.(check int) "three wired" 3 (Vspace.wired_pages vs);
  Vspace.wire vs ~vaddr:v ~len:4096;
  Alcotest.(check int) "recount not double" 3 (Vspace.wired_pages vs);
  Vspace.unwire vs ~vaddr:v ~len:4096;
  Alcotest.(check bool) "still wired once" true (Vspace.is_wired vs ~vaddr:v);
  Vspace.unwire vs ~vaddr:v ~len:(3 * 4096);
  Alcotest.(check int) "all unwired" 0 (Vspace.wired_pages vs)

let test_sg_map_loads_accumulate () =
  let sg = Sg_map.create ~slots:16 ~page_size:4096 in
  ignore (Sg_map.program sg [ Pbuf.v ~addr:0 ~len:8192 ]);
  ignore (Sg_map.program sg [ Pbuf.v ~addr:16384 ~len:4096 ]);
  Alcotest.(check int) "loads accumulate across transfers" 3 (Sg_map.loads sg)

let test_sg_map () =
  let sg = Sg_map.create ~slots:8 ~page_size:4096 in
  let bufs = [ Pbuf.v ~addr:40960 ~len:4096; Pbuf.v ~addr:8192 ~len:4096 ] in
  Alcotest.(check bool) "two buffers fit eight slots" true
    (Sg_map.program sg bufs);
  Alcotest.(check int) "loads counted" 2 (Sg_map.loads sg);
  let big = List.init 9 (fun i -> Pbuf.v ~addr:(i * 4096) ~len:4096) in
  Alcotest.(check bool) "overflow rejected" false (Sg_map.program sg big);
  Alcotest.(check int) "a rejected list loads nothing" 2 (Sg_map.loads sg)

(* --- differential oracles: sparse memory vs the dense original ----- *)

(* Reference allocator: the free [int list] plus [Hashtbl] free set that
   Phys_mem kept before its free list became linked arrays. The real
   allocator must hand out exactly the same addresses in the same order,
   because §2.2 buffer counts and cache indices are built on them. *)
module Ref_alloc = struct
  type t = {
    page_size : int;
    nframes : int;
    mutable free : int list;
    free_set : (int, unit) Hashtbl.t;
  }

  let create ?scramble ~nframes ~page_size () =
    let order = Array.init nframes (fun i -> i) in
    (match scramble with Some rng -> Rng.shuffle rng order | None -> ());
    let free = Array.to_list order in
    let free_set = Hashtbl.create nframes in
    List.iter (fun f -> Hashtbl.replace free_set f ()) free;
    { page_size; nframes; free; free_set }

  let free_frames t = Hashtbl.length t.free_set

  let alloc_frame t =
    match t.free with
    | [] -> raise Out_of_memory
    | f :: rest ->
        t.free <- rest;
        Hashtbl.remove t.free_set f;
        f * t.page_size

  let alloc_contiguous t ~nframes =
    if nframes <= 0 then invalid_arg "Phys_mem.alloc_contiguous";
    let is_free f = Hashtbl.mem t.free_set f in
    let rec find base =
      if base + nframes > t.nframes then None
      else begin
        let rec run i = i = nframes || (is_free (base + i) && run (i + 1)) in
        if run 0 then Some base else find (base + 1)
      end
    in
    match find 0 with
    | None -> None
    | Some base ->
        for i = base to base + nframes - 1 do
          Hashtbl.remove t.free_set i
        done;
        t.free <- List.filter (fun f -> f < base || f >= base + nframes) t.free;
        Some (base * t.page_size)

  let free_frame t addr =
    if addr mod t.page_size <> 0 then
      invalid_arg "Phys_mem.free_frame: unaligned address";
    let f = addr / t.page_size in
    if f < 0 || f >= t.nframes then invalid_arg "Phys_mem.free_frame: bad frame";
    if Hashtbl.mem t.free_set f then
      invalid_arg "Phys_mem.free_frame: double free";
    Hashtbl.replace t.free_set f ();
    t.free <- f :: t.free
end

(* [Free i] frees the [i]-th address handed out so far (modulo their
   number), so frees of live, already-freed and never-issued frames all
   occur; [Free_addr a] frees a raw, possibly unaligned or out-of-range
   address. *)
type alloc_op = Alloc | Contig of int | Free of int | Free_addr of int

let alloc_nframes = 24

let alloc_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return Alloc);
        (2, map (fun n -> Contig n) (int_range 1 8));
        (4, map (fun i -> Free i) (int_bound 1000));
        (1, map (fun a -> Free_addr a) (int_range (-4096) ((alloc_nframes + 1) * 4096)));
      ])

let alloc_case_arb =
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "scramble=%s ops=%s"
        (match seed with None -> "none" | Some s -> string_of_int s)
        (String.concat ";"
           (List.map
              (function
                | Alloc -> "alloc"
                | Contig n -> Printf.sprintf "contig %d" n
                | Free i -> Printf.sprintf "free #%d" i
                | Free_addr a -> Printf.sprintf "free %d" a)
              ops)))
    QCheck.Gen.(
      pair (opt (int_bound 1_000_000)) (list_size (int_bound 300) alloc_op_gen))

let outcome f =
  match f () with
  | a -> Printf.sprintf "= %d" a
  | exception e -> Printexc.to_string e

let allocator_matches_reference =
  QCheck.Test.make ~name:"phys_mem: allocator = list+Hashtbl reference"
    ~count:300 alloc_case_arb (fun (seed, ops) ->
      let scramble () = Option.map (fun s -> Rng.create ~seed:s) seed in
      let mem =
        Phys_mem.create ?scramble:(scramble ()) ~size:(alloc_nframes * 4096)
          ~page_size:4096 ()
      in
      let model =
        Ref_alloc.create ?scramble:(scramble ()) ~nframes:alloc_nframes
          ~page_size:4096 ()
      in
      let issued = ref [||] in
      let remember a =
        issued := Array.append !issued [| a |];
        a
      in
      let free addr =
        ( outcome (fun () -> Phys_mem.free_frame mem addr; addr),
          outcome (fun () -> Ref_alloc.free_frame model addr; addr) )
      in
      let show = function None -> "none" | Some a -> Printf.sprintf "= %d" a in
      List.iteri
        (fun step op ->
          let got, want =
            match op with
            | Alloc ->
                ( outcome (fun () -> Phys_mem.alloc_frame mem),
                  outcome (fun () -> remember (Ref_alloc.alloc_frame model)) )
            | Contig n ->
                ( show (Phys_mem.alloc_contiguous mem ~nframes:n),
                  show
                    (Option.map remember
                       (Ref_alloc.alloc_contiguous model ~nframes:n)) )
            | Free i ->
                let n = Array.length !issued in
                free (if n = 0 then 0 else !issued.(i mod n))
            | Free_addr a -> free a
          in
          if got <> want then
            QCheck.Test.fail_reportf "step %d: got %s, reference %s" step got want;
          let gf = Phys_mem.free_frames mem and wf = Ref_alloc.free_frames model in
          if gf <> wf then
            QCheck.Test.fail_reportf "step %d: free_frames %d, reference %d" step gf wf)
        ops;
      (* Draining both allocators yields the same remaining order. *)
      let rec drain alloc acc =
        match alloc () with
        | a -> drain alloc (a :: acc)
        | exception Out_of_memory -> List.rev acc
      in
      drain (fun () -> Phys_mem.alloc_frame mem) []
      = drain (fun () -> Ref_alloc.alloc_frame model) [])

(* Reference contents: one flat, zero-initialised [Bytes]. Addresses are
   drawn anywhere or near block boundaries (a block is 1 KB, or a page
   if pages are smaller), so ranges start, end and straddle blocks and
   frames, and few writes leave most blocks never written, some of them
   inside written frames. Frames are allocated, freed and reallocated
   between accesses, and some writes land in the frame last handed out:
   a frame keeps its bytes across a free, as memory does. *)
type mem_op =
  | Write_byte of int * int
  | Blit_from of int * int * int  (** dst, len, pattern seed *)
  | Fill of int * int * char
  | Equal of int * int * int  (** addr, len, byte to flip (or -1) *)
  | Crc of int * int
  | Alloc
  | Free of int
  | In_last of int * int * int  (** offset in the last frame handed out, len, seed *)

let c_page = 64
let c_frames = 16
let c_size = c_page * c_frames

let mem_op_gen ~page ~frames =
  QCheck.Gen.(
    let size = page * frames and block = min 1024 page in
    let near =
      map2
        (fun k d -> max 0 (min (size - 1) ((k * block) + d)))
        (int_bound (size / block)) (int_range (-6) 6)
    in
    let addr = oneof [ near; int_bound (size - 1) ] in
    let len = oneof [ int_bound 12; int_bound (block + 76); int_bound (3 * page) ] in
    let range = map2 (fun a n -> (a, min n (size - a))) addr len in
    frequency
      [
        (2, map2 (fun a v -> Write_byte (a, v)) addr (int_bound 255));
        (3, map2 (fun (a, n) s -> Blit_from (a, n, s)) range (int_bound 1000));
        (2, map2 (fun (a, n) c -> Fill (a, n, c)) range printable);
        ( 2,
          range >>= fun (a, n) ->
          map (fun f -> Equal (a, n, f)) (int_range (-1) (n + 3)) );
        (2, map (fun (a, n) -> Crc (a, n)) range);
        (1, return Alloc);
        (1, map (fun i -> Free i) (int_bound 100));
        ( 2,
          map3
            (fun o n s -> In_last (o, min n (page - o), s))
            (int_bound (page - 1)) len (int_bound 1000) );
      ])

let pattern n seed = Bytes.init n (fun i -> Char.chr ((i * 31 + seed) land 0xff))

let contents_match_flat_model ~name ~page ~frames =
  let size = page * frames in
  QCheck.Test.make ~name ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) (mem_op_gen ~page ~frames)))
    (fun ops ->
      let mem = Phys_mem.create ~size ~page_size:page () in
      let flat = Bytes.make size '\000' in
      let written = Array.make frames false in
      let wrote addr len =
        if len > 0 then
          for f = addr / page to (addr + len - 1) / page do
            written.(f) <- true
          done
      in
      let held = ref [] and last = ref 0 in
      List.iteri
        (fun step op ->
          let fail what = QCheck.Test.fail_reportf "step %d: %s" step what in
          match op with
          | Write_byte (a, v) ->
              Phys_mem.write_byte mem a v;
              Bytes.set flat a (Char.chr v);
              wrote a 1
          | Blit_from (a, n, seed) ->
              let src = pattern (n + 3) seed in
              Phys_mem.blit_from_bytes mem ~src ~src_off:3 ~dst:a ~len:n;
              Bytes.blit src 3 flat a n;
              wrote a n
          | Fill (a, n, c) ->
              Phys_mem.fill mem ~addr:a ~len:n c;
              Bytes.fill flat a n c;
              wrote a n
          | In_last (o, n, seed) ->
              let src = pattern n seed in
              Phys_mem.blit_from_bytes mem ~src ~src_off:0 ~dst:(!last + o) ~len:n;
              Bytes.blit src 0 flat (!last + o) n;
              wrote (!last + o) n
          | Equal (a, n, flip) ->
              let b = Bytes.cat (Bytes.make 3 'z') (Bytes.sub flat a n) in
              if flip >= 0 && flip < Bytes.length b then
                Bytes.set b flip (Char.chr (Char.code (Bytes.get b flip) lxor 0x10));
              let want = Bytes.sub b 3 n = Bytes.sub flat a n in
              if Phys_mem.equal_bytes mem ~addr:a ~len:n b ~off:3 <> want then
                fail (Printf.sprintf "equal_bytes %#x+%d flip %d" a n flip)
          | Crc (a, n) ->
              let crc0 = Osiris_util.Crc32.init in
              if Phys_mem.crc32 mem crc0 ~addr:a ~len:n
                 <> Osiris_util.Crc32.update crc0 flat ~off:a ~len:n
              then fail (Printf.sprintf "crc32 %#x+%d" a n)
          | Alloc -> (
              match Phys_mem.alloc_frame mem with
              | a ->
                  held := a :: !held;
                  last := a
              | exception Out_of_memory -> ())
          | Free i -> (
              match !held with
              | [] -> ()
              | l ->
                  let a = List.nth l (i mod List.length l) in
                  Phys_mem.free_frame mem a;
                  held := List.filter (( <> ) a) l))
        ops;
      (* Single-access reads at every address of a small memory; at every
         7th of a larger one, which still meets every offset in a block,
         since 7 is prime to the block size. *)
      let stride = if size <= 4096 then 1 else 7 in
      for i = 0 to (size - 1) / stride do
        let a = i * stride in
        if Phys_mem.read_byte mem a <> Char.code (Bytes.get flat a) then
          QCheck.Test.fail_reportf "read_byte %d" a;
        let n = min (size - a) (1 + (a * 7 mod 192)) in
        let dst = Bytes.make (n + 2) '?' in
        Phys_mem.blit_to_bytes mem ~src:a ~dst ~dst_off:1 ~len:n;
        if Bytes.sub dst 1 n <> Bytes.sub flat a n
           || Bytes.get dst 0 <> '?' || Bytes.get dst (n + 1) <> '?'
        then QCheck.Test.fail_reportf "blit_to_bytes %d+%d" a n
      done;
      let bufs = [ Pbuf.v ~addr:(size - 70) ~len:70; Pbuf.v ~addr:5 ~len:130 ] in
      let want = Bytes.cat (Bytes.sub flat (size - 70) 70) (Bytes.sub flat 5 130) in
      Phys_mem.bytes_of_region mem ~addr:0 ~len:size = flat
      && Copying.bytes_of_pbufs mem bufs = want
      && Phys_mem.resident_frames mem
         = Array.fold_left (fun n w -> if w then n + 1 else n) 0 written)

(* The in-place reads against the copying forms: [equal_bytes] against
   copying both sides and comparing, [crc32] against the CRC of a copy.
   Every other frame is written, so ranges span written frames, frames
   never written (zeros) and both; the compared buffer is the truth with
   at most one byte changed, anywhere, including outside the range. *)
let in_place_reads_match_copies =
  QCheck.Test.make ~name:"phys_mem: in-place reads match the copying forms"
    ~count:500
    QCheck.(
      make
        Gen.(
          quad (0 -- (c_size - 1)) (0 -- (3 * c_page)) (0 -- 7)
            (pair (int_range (-1) 400) (0 -- 1000))))
    (fun (addr, len, off, (flip, seed)) ->
      let len = min len (c_size - addr) in
      let mem = Phys_mem.create ~size:c_size ~page_size:c_page () in
      for f = 0 to c_frames - 1 do
        if (f + seed) land 1 = 0 then
          Phys_mem.blit_from_bytes mem ~src:(pattern c_page (seed + f))
            ~src_off:0 ~dst:(f * c_page) ~len:c_page
      done;
      let b = Bytes.make (off + len + 3) '\x5a' in
      Bytes.blit (Phys_mem.bytes_of_region mem ~addr ~len) 0 b off len;
      if flip >= 0 && flip < Bytes.length b then
        Bytes.set b flip (Char.chr (Char.code (Bytes.get b flip) lxor 0x01));
      let crc0 = Osiris_util.Crc32.init in
      Phys_mem.equal_bytes mem ~addr ~len b ~off
      = Copying.region_equals mem ~addr ~len b ~off
      && Phys_mem.crc32 mem crc0 ~addr ~len
         = Osiris_util.Crc32.update crc0
             (Phys_mem.bytes_of_region mem ~addr ~len)
             ~off:0 ~len)

let test_fresh_memory_is_not_resident () =
  let mem = Phys_mem.create ~size:(64 * 1024 * 1024) ~page_size:4096 () in
  Alcotest.(check int) "nothing resident" 0 (Phys_mem.resident_frames mem);
  Alcotest.(check int) "unwritten reads zero" 0
    (Phys_mem.read_byte mem (32 * 1024 * 1024));
  let word = Bytes.of_string "\001\002\003\004" in
  Phys_mem.blit_from_bytes mem ~src:word ~src_off:0 ~dst:(4096 - 2) ~len:4;
  Alcotest.(check int) "a straddling word writes two frames" 2
    (Phys_mem.resident_frames mem);
  Alcotest.(check bytes) "and reads back" word
    (Phys_mem.bytes_of_region mem ~addr:(4096 - 2) ~len:4)

let suite =
  [
    Alcotest.test_case "phys_mem: alloc/free" `Quick test_alloc_free_cycle;
    Alcotest.test_case "phys_mem: double free" `Quick test_double_free_rejected;
    Alcotest.test_case "phys_mem: exhaustion" `Quick test_exhaustion;
    Alcotest.test_case "phys_mem: contiguous" `Quick test_contiguous_alloc;
    Alcotest.test_case "phys_mem: read/write" `Quick test_rw_roundtrip;
    Alcotest.test_case "phys_mem: bounds" `Quick test_bounds_checked;
    QCheck_alcotest.to_alcotest allocator_matches_reference;
    (* 64 B pages: a block per frame, many frames per range. 4 KB pages:
       four 1 KB blocks per frame. *)
    QCheck_alcotest.to_alcotest
      (contents_match_flat_model ~name:"phys_mem: contents = flat zeroed Bytes model"
         ~page:c_page ~frames:c_frames);
    QCheck_alcotest.to_alcotest in_place_reads_match_copies;
    QCheck_alcotest.to_alcotest
      (contents_match_flat_model
         ~name:"phys_mem: 4 KB pages, contents = flat zeroed Bytes model"
         ~page:4096 ~frames:6);
    Alcotest.test_case "phys_mem: fresh memory is not resident" `Quick
      test_fresh_memory_is_not_resident;
    QCheck_alcotest.to_alcotest pbuf_coalesce_inverse_of_split;
    Alcotest.test_case "pbuf: gaps stay split" `Quick test_coalesce_non_adjacent;
    Alcotest.test_case "vspace: translate" `Quick test_vspace_translate_roundtrip;
    Alcotest.test_case "vspace: scrambled frames fragment" `Quick
      test_vspace_scrambled_fragmentation;
    Alcotest.test_case "vspace: sequential frames coalesce" `Quick
      test_vspace_sequential_is_contiguous;
    Alcotest.test_case "vspace: contiguous alloc" `Quick
      test_vspace_contiguous_alloc;
    Alcotest.test_case "vspace: offset alloc" `Quick test_vspace_offset_alloc;
    Alcotest.test_case "vspace: free returns frames" `Quick
      test_vspace_free_returns_frames;
    Alcotest.test_case "vspace: page fault" `Quick test_page_fault;
    Alcotest.test_case "vspace: wiring counts" `Quick test_wiring_counts;
    Alcotest.test_case "sg_map: program" `Quick test_sg_map;
    Alcotest.test_case "sg_map: load accounting" `Quick
      test_sg_map_loads_accumulate;
  ]
