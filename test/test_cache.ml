(* Tests for the data-cache model: hits, misses, write-through, stale data
   under software coherence, hardware update, invalidation. *)

open Osiris_sim
module Cache = Osiris_cache.Data_cache
module Phys_mem = Osiris_mem.Phys_mem
module Tc = Osiris_bus.Turbochannel

let setup ?(coherence = Cache.Software) () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(1 lsl 20) ~page_size:4096 () in
  let bus = Tc.create eng Tc.Shared_bus in
  let cache =
    Cache.create eng ~mem ~bus
      {
        Cache.size = 64 * 1024;
        line_size = 16;
        coherence;
        cpu_hz = 25_000_000;
        fill_overhead_cycles = 13;
      }
  in
  (eng, mem, cache)

let in_process eng f =
  let r = ref None in
  Process.spawn eng ~name:"t" (fun () -> r := Some (f ()));
  Engine.run eng;
  Option.get !r

let test_read_returns_memory () =
  let eng, mem, cache = setup () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:512 ~len:64 'Q';
      let b = Cache.read cache ~addr:512 ~len:64 in
      Alcotest.(check bytes) "fill read" (Bytes.make 64 'Q') b)

let test_hit_vs_miss_cost () =
  let eng, _, cache = setup () in
  in_process eng (fun () ->
      let t0 = Engine.now eng in
      ignore (Cache.read cache ~addr:0 ~len:64);
      let t_miss = Engine.now eng - t0 in
      let t1 = Engine.now eng in
      ignore (Cache.read cache ~addr:0 ~len:64);
      let t_hit = Engine.now eng - t1 in
      Alcotest.(check bool) "miss costs more" true (t_miss > 2 * t_hit);
      let st = Cache.stats cache in
      Alcotest.(check int) "misses" 4 st.Cache.misses;
      Alcotest.(check int) "hits" 4 st.Cache.hits)

let test_stale_data_software () =
  let eng, mem, cache = setup () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:0 ~len:64 'A';
      ignore (Cache.read cache ~addr:0 ~len:64);
      (* DMA overwrites memory; the cache is not told to update. *)
      Phys_mem.fill mem ~addr:0 ~len:64 'B';
      Cache.dma_wrote cache ~addr:0 ~len:64;
      let b = Cache.read cache ~addr:0 ~len:64 in
      Alcotest.(check bytes) "stale bytes returned" (Bytes.make 64 'A') b;
      let st = Cache.stats cache in
      Alcotest.(check bool) "overlaps counted" true (st.Cache.stale_overlaps > 0);
      Alcotest.(check bool) "stale read counted" true (st.Cache.stale_reads > 0);
      (* Invalidate, then the truth is visible. *)
      Cache.invalidate cache ~addr:0 ~len:64;
      let b2 = Cache.read cache ~addr:0 ~len:64 in
      Alcotest.(check bytes) "fresh after invalidate" (Bytes.make 64 'B') b2)

let test_hardware_update () =
  let eng, mem, cache = setup ~coherence:Cache.Hardware_update () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:0 ~len:64 'A';
      ignore (Cache.read cache ~addr:0 ~len:64);
      Phys_mem.fill mem ~addr:0 ~len:64 'B';
      Cache.dma_wrote cache ~addr:0 ~len:64;
      let b = Cache.read cache ~addr:0 ~len:64 in
      Alcotest.(check bytes) "coherent" (Bytes.make 64 'B') b;
      Alcotest.(check int) "no stale reads"
        0 (Cache.stats cache).Cache.stale_reads)

let test_hardware_update_allocates () =
  (* The 3000/600's L2 takes DMA data in: the first CPU read hits. *)
  let eng, mem, cache = setup ~coherence:Cache.Hardware_update () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:1024 ~len:16 'Z';
      Cache.dma_wrote cache ~addr:1024 ~len:16;
      Alcotest.(check bool) "resident after DMA" true
        (Cache.resident cache ~addr:1024))

let test_write_through () =
  let eng, mem, cache = setup () in
  in_process eng (fun () ->
      ignore (Cache.read cache ~addr:0 ~len:16);
      Cache.write cache ~addr:0 ~src:(Bytes.make 16 'W');
      (* memory updated immediately *)
      Alcotest.(check bytes) "memory updated" (Bytes.make 16 'W')
        (Phys_mem.bytes_of_region mem ~addr:0 ~len:16);
      (* resident line updated too: a read hits and agrees *)
      let b = Cache.read cache ~addr:0 ~len:16 in
      Alcotest.(check bytes) "cache coherent with own write"
        (Bytes.make 16 'W') b)

let test_invalidation_cost () =
  let eng, _, cache = setup () in
  in_process eng (fun () ->
      let t0 = Engine.now eng in
      (* 16 KB = 4096 words at 1 cycle each at 25 MHz = 163.84 us *)
      Cache.invalidate cache ~addr:0 ~len:(16 * 1024);
      let dt = Engine.now eng - t0 in
      Alcotest.(check int) "one cycle per word" 163_840 dt)

let test_direct_mapped_eviction () =
  let eng, mem, cache = setup () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:0 ~len:16 'A';
      ignore (Cache.read cache ~addr:0 ~len:16);
      Alcotest.(check bool) "resident" true (Cache.resident cache ~addr:0);
      (* Same index, different tag: 64 KB away. *)
      ignore (Cache.read cache ~addr:(64 * 1024) ~len:16);
      Alcotest.(check bool) "evicted by alias" false
        (Cache.resident cache ~addr:0))

(* --- differential oracle: flat cache vs a record-per-line model ---- *)

(* Reference: the cache's former layout, one record and one [Bytes] per
   line, with no timing, over a flat copy of main memory. The real cache
   must return the same bytes, count the same stats and hold the same
   lines under any interleaving of its operations. *)
module Ref_cache = struct
  type line = { mutable tag : int; mutable valid : bool; data : Bytes.t }

  type t = {
    mem : Bytes.t;
    ls : int;
    lines : line array;
    hw : bool;
    mutable cursor : int;
    mutable hits : int;
    mutable misses : int;
    mutable invalidated : int;
    mutable overlaps : int;
    mutable stale_reads : int;
  }

  let create ~mem_size ~size ~line_size ~hw =
    {
      mem = Bytes.make mem_size '\000';
      ls = line_size;
      lines =
        Array.init (size / line_size) (fun _ ->
            { tag = -1; valid = false; data = Bytes.create line_size });
      hw;
      cursor = 0;
      hits = 0;
      misses = 0;
      invalidated = 0;
      overlaps = 0;
      stale_reads = 0;
    }

  let line t tag = t.lines.(tag mod Array.length t.lines)
  let holds l tag = l.valid && l.tag = tag

  let fill t l tag =
    Bytes.blit t.mem (tag * t.ls) l.data 0 t.ls;
    l.tag <- tag;
    l.valid <- true

  let iter_lines t ~addr ~len f =
    if len > 0 then
      for tag = addr / t.ls to (addr + len - 1) / t.ls do
        f tag (line t tag)
      done

  let read t ~addr ~len =
    let out = Bytes.create len in
    let pos = ref addr in
    while !pos < addr + len do
      let tag = !pos / t.ls and off = !pos mod t.ls in
      let n = min (addr + len - !pos) (t.ls - off) in
      let l = line t tag in
      if holds l tag then t.hits <- t.hits + 1
      else begin
        t.misses <- t.misses + 1;
        fill t l tag
      end;
      Bytes.blit l.data off out (!pos - addr) n;
      pos := !pos + n
    done;
    if out <> Bytes.sub t.mem addr len then t.stale_reads <- t.stale_reads + 1;
    out

  let write t ~addr ~src =
    let len = Bytes.length src in
    Bytes.blit src 0 t.mem addr len;
    iter_lines t ~addr ~len (fun tag l ->
        if holds l tag then begin
          let lo = max addr (tag * t.ls)
          and hi = min (addr + len) ((tag + 1) * t.ls) in
          Bytes.blit src (lo - addr) l.data (lo - (tag * t.ls)) (hi - lo)
        end)

  let invalidate t ~addr ~len =
    iter_lines t ~addr ~len (fun tag l ->
        if holds l tag then begin
          l.valid <- false;
          t.invalidated <- t.invalidated + 1
        end)

  let invalidate_all t =
    Array.iter
      (fun l ->
        if l.valid then begin
          l.valid <- false;
          t.invalidated <- t.invalidated + 1
        end)
      t.lines

  let pressure t ~lines =
    for _ = 1 to lines do
      t.lines.(t.cursor).valid <- false;
      t.cursor <- (t.cursor + 1) mod Array.length t.lines
    done

  let dma_wrote t ~addr ~len =
    iter_lines t ~addr ~len (fun tag l ->
        if t.hw then fill t l tag
        else if holds l tag then t.overlaps <- t.overlaps + 1)

  let resident t ~addr = holds (line t (addr / t.ls)) (addr / t.ls)
end

(* A cache of [size] bytes over eight times as much memory, so every
   index has eight possible tags and evictions, stale lines and refills
   are frequent. Most ranges are short; a quarter run up to [max_len]
   bytes, and pressure evicts up to [max_pressure] lines at a time. With
   several 1 KB tag chunks in the cache, long ranges and pressure runs
   cross chunk boundaries and some chunks are never filled. Every 100
   steps, and at the end, the stats match, every line is resident in
   both or in neither, and each resident line reads back the model's
   bytes. *)
let oracle_case coherence ~size ~line_size ~max_len ~max_pressure ~seed () =
  let mem_size = 8 * size in
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:mem_size ~page_size:4096 () in
  let bus = Tc.create eng Tc.Shared_bus in
  let cache =
    Cache.create eng ~mem ~bus
      {
        Cache.size;
        line_size;
        coherence;
        cpu_hz = 25_000_000;
        fill_overhead_cycles = 13;
      }
  in
  let model =
    Ref_cache.create ~mem_size ~size ~line_size
      ~hw:(coherence = Cache.Hardware_update)
  in
  let rng = Osiris_util.Rng.create ~seed in
  let int n = Osiris_util.Rng.int rng n in
  let range () =
    let len = int (if int 4 = 0 then max_len else 80) in
    (int (mem_size - len + 1), len)
  in
  let bytes n = Bytes.init n (fun _ -> Char.chr (int 256)) in
  let check_state step =
    let st = Cache.stats cache and m = model in
    if
      (st.Cache.hits, st.Cache.misses, st.Cache.invalidated_lines,
       st.Cache.stale_overlaps, st.Cache.stale_reads)
      <> (m.Ref_cache.hits, m.misses, m.invalidated, m.overlaps, m.stale_reads)
    then Alcotest.failf "step %d: stats differ from the reference" step;
    for l = 0 to (mem_size / line_size) - 1 do
      let addr = l * line_size in
      let held = Ref_cache.resident model ~addr in
      if Cache.resident cache ~addr <> held then
        Alcotest.failf "step %d: residency of %#x differs" step addr;
      if
        held
        && Cache.read cache ~addr ~len:line_size
           <> Ref_cache.read model ~addr ~len:line_size
      then Alcotest.failf "step %d: bytes of line %#x differ" step addr
    done
  in
  in_process eng (fun () ->
      for step = 1 to 3000 do
        (match int 12 with
        | 0 | 1 | 2 | 3 ->
            let addr, len = range () in
            let off = int 5 in
            let got = Bytes.make (off + len + 1) '?'
            and want = Bytes.make (off + len + 1) '?' in
            Cache.read_into cache ~addr ~len ~dst:got ~dst_off:off;
            Bytes.blit (Ref_cache.read model ~addr ~len) 0 want off len;
            if got <> want then
              Alcotest.failf "step %d: read %#x+%d differs" step addr len
        | 4 | 5 ->
            let addr, len = range () in
            let src = bytes len in
            Cache.write cache ~addr ~src;
            Ref_cache.write model ~addr ~src
        | 6 | 7 ->
            (* DMA: memory changes behind the cache, then it is told. *)
            let addr, len = range () in
            let src = bytes len in
            Phys_mem.blit_from_bytes mem ~src ~src_off:0 ~dst:addr ~len;
            Bytes.blit src 0 model.Ref_cache.mem addr len;
            Cache.dma_wrote cache ~addr ~len;
            Ref_cache.dma_wrote model ~addr ~len
        | 8 | 9 ->
            let addr, len = range () in
            Cache.invalidate cache ~addr ~len;
            Ref_cache.invalidate model ~addr ~len
        | 10 ->
            let lines = int max_pressure in
            Cache.pressure cache ~lines;
            Ref_cache.pressure model ~lines
        | _ ->
            if int 10 = 0 then begin
              Cache.invalidate_all cache;
              Ref_cache.invalidate_all model
            end);
        if step mod 100 = 0 then check_state step
      done;
      check_state 3000;
      Alcotest.(check bool) "stale reads exercised" true
        (coherence = Cache.Hardware_update || model.Ref_cache.stale_reads > 0))

let suite =
  [
    Alcotest.test_case "read returns memory" `Quick test_read_returns_memory;
    Alcotest.test_case "hit vs miss cost" `Quick test_hit_vs_miss_cost;
    Alcotest.test_case "stale data under software coherence" `Quick
      test_stale_data_software;
    Alcotest.test_case "hardware update mode" `Quick test_hardware_update;
    Alcotest.test_case "hardware update allocates" `Quick
      test_hardware_update_allocates;
    Alcotest.test_case "write-through" `Quick test_write_through;
    Alcotest.test_case "invalidation cost (1 cycle/word)" `Quick
      test_invalidation_cost;
    Alcotest.test_case "direct-mapped eviction" `Quick
      test_direct_mapped_eviction;
    Alcotest.test_case "software coherence = record-per-line reference" `Quick
      (oracle_case Cache.Software ~size:2048 ~line_size:16 ~max_len:80
         ~max_pressure:40 ~seed:3);
    Alcotest.test_case "hardware update = record-per-line reference" `Quick
      (oracle_case Cache.Hardware_update ~size:2048 ~line_size:16 ~max_len:80
         ~max_pressure:40 ~seed:4);
    (* Eight and four tag chunks; pressure may wrap the whole cache. *)
    Alcotest.test_case
      "software coherence, 8 KB of 16 B lines = record-per-line reference"
      `Quick
      (oracle_case Cache.Software ~size:(8 * 1024) ~line_size:16 ~max_len:3000
         ~max_pressure:612 ~seed:5);
    Alcotest.test_case
      "hardware update, 4 KB of 32 B lines = record-per-line reference" `Quick
      (oracle_case Cache.Hardware_update ~size:(4 * 1024) ~line_size:32
         ~max_len:3000 ~max_pressure:228 ~seed:6);
  ]
