open Osiris_sim
module Phys_mem = Osiris_mem.Phys_mem
module Tc = Osiris_bus.Turbochannel
module Metrics = Osiris_obs.Metrics
module Bits = Osiris_util.Bits

type coherence = Software | Hardware_update

type config = {
  size : int;
  line_size : int;
  coherence : coherence;
  cpu_hz : int;
  fill_overhead_cycles : int;
}

(* CPU cycles to consume one cached word: 1 on both machines. *)
let hit_cycles_per_word = 1

(* §2.3: invalidation costs one CPU cycle per 32-bit word. *)
let invalidate_cycles_per_word = 1

type stats = {
  hits : int;
  misses : int;
  invalidated_lines : int;
  stale_overlaps : int;
  stale_reads : int;
}

(* Registry handles behind [stats]; [stats t] snapshots them. *)
type m = {
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_invalidated_lines : Metrics.counter;
  m_stale_overlaps : Metrics.counter;
  m_stale_reads : Metrics.counter;
}

(* Tags live in chunks of [chunk_lines t] consecutive line indices. A
   chunk is the shared [blank] (every line invalid, never written) until
   a line in it is first filled. The line bytes are one flat region
   whose untouched pages the OS never maps. Every size is a power of
   two, so an address splits into tag, index and offset with shifts and
   masks. *)
type t = {
  eng : Engine.t;
  mem : Phys_mem.t;
  bus : Tc.t;
  cfg : config;
  line_shift : int;
  line_mask : int; (* offset within a line *)
  index_mask : int; (* nlines - 1 *)
  chunk_shift : int;
  chunk_mask : int; (* index within a chunk *)
  chunks : int array array; (* tags of each chunk's lines; -1 = invalid *)
  blank : int array;
  data : Bytes.t; (* line [i]'s bytes at [i lsl line_shift] *)
  mutable pressure_cursor : int;
  m : m;
}

let invalid = -1

(* A chunk covers 1 KB of lines (DESIGN §19): on the fat-tree the lines
   a run fills touch few such stretches of the index space, so most
   chunks stay [blank]. *)
let chunk_bytes = 1024

let create eng ~mem ~bus cfg =
  if cfg.size <= 0 || cfg.line_size <= 0 || cfg.size mod cfg.line_size <> 0
  then invalid_arg "Data_cache.create: size must be a multiple of line_size";
  if not (Bits.is_pow2 cfg.size && Bits.is_pow2 cfg.line_size) then
    invalid_arg "Data_cache.create: size and line_size must be powers of two";
  let nlines = cfg.size / cfg.line_size in
  let chunk_lines = Int.min nlines (Int.max 1 (chunk_bytes / cfg.line_size)) in
  let blank = Array.make chunk_lines invalid in
  {
    eng;
    mem;
    bus;
    cfg;
    line_shift = Bits.log2 cfg.line_size;
    line_mask = cfg.line_size - 1;
    index_mask = nlines - 1;
    chunk_shift = Bits.log2 chunk_lines;
    chunk_mask = chunk_lines - 1;
    chunks = Array.make (nlines / chunk_lines) blank;
    blank;
    pressure_cursor = 0;
    data = Bytes.create cfg.size;
    m =
      {
        m_hits = Metrics.counter "cache.hits";
        m_misses = Metrics.counter "cache.misses";
        m_invalidated_lines = Metrics.counter "cache.invalidated_lines";
        m_stale_overlaps = Metrics.counter "cache.stale_overlaps";
        m_stale_reads = Metrics.counter "cache.stale_reads";
      };
  }

let config t = t.cfg

let cpu_cycles_ns t cycles =
  (* Round up so a nonzero cost never vanishes. *)
  ((cycles * 1_000_000_000) + t.cfg.cpu_hz - 1) / t.cfg.cpu_hz

let line_tag t addr = addr lsr t.line_shift
let line_index t tag = tag land t.index_mask

(* The tag held at index [i]: [invalid] in a blank chunk. *)
let tag_at t i =
  Array.unsafe_get
    (Array.unsafe_get t.chunks (i lsr t.chunk_shift))
    (i land t.chunk_mask)

(* Line [i] holds [tag], its chunk allocated on its first fill. *)
let set_tag t i tag =
  let c = i lsr t.chunk_shift in
  let chunk = Array.unsafe_get t.chunks c in
  let chunk =
    if chunk != t.blank then chunk
    else begin
      let chunk =
        (Array.make (t.chunk_mask + 1) invalid
        [@osiris.alloc_ok
          "first fill of a line in this chunk: once per chunk the run \
           ever fills"])
      in
      t.chunks.(c) <- chunk;
      chunk
    end
  in
  chunk.(i land t.chunk_mask) <- tag

let fill_line t i tag =
  Phys_mem.blit_to_bytes t.mem ~src:(tag lsl t.line_shift) ~dst:t.data
    ~dst_off:(i lsl t.line_shift) ~len:t.cfg.line_size;
  set_tag t i tag

(* Ensure the line containing [addr] is resident; charge fill cost on miss
   and hit cost for consuming [words_used] words. Returns the line's
   index. *)
let touch_line t addr ~words_used =
  let tag = line_tag t addr in
  let i = line_index t tag in
  if tag_at t i = tag then Metrics.incr t.m.m_hits
  else begin
    Metrics.incr t.m.m_misses;
    (* Fill from main memory across the bus (contends on a shared bus). *)
    Tc.cpu_access t.bus ~bytes:t.cfg.line_size
      ~overhead_cycles:t.cfg.fill_overhead_cycles;
    fill_line t i tag
  end;
  Process.sleep t.eng
    (cpu_cycles_ns t (words_used * hit_cycles_per_word));
  i

let read_into t ~addr ~len ~dst ~dst_off =
  if len < 0 then invalid_arg "Data_cache.read_into: negative length";
  let pos = ref addr and out = ref dst_off and remaining = ref len in
  while !remaining > 0 do
    let in_line = t.cfg.line_size - (!pos land t.line_mask) in
    let chunk = Int.min !remaining in_line in
    let words = (chunk + 3) lsr 2 in
    let i = touch_line t !pos ~words_used:words in
    Bytes.blit t.data
      ((i lsl t.line_shift) + (!pos land t.line_mask))
      dst !out chunk;
    pos := !pos + chunk;
    out := !out + chunk;
    remaining := !remaining - chunk
  done;
  (* Stale-read detection (model bookkeeping, not charged time): what the
     read returned against memory as it stands now, compared in place. *)
  if not (Phys_mem.equal_bytes t.mem ~addr ~len dst ~off:dst_off) then
    Metrics.incr t.m.m_stale_reads

let read t ~addr ~len =
  let out = Bytes.create len in
  read_into t ~addr ~len ~dst:out ~dst_off:0;
  out

let write t ~addr ~src =
  let len = Bytes.length src in
  (* Write-through: memory is updated and resident lines refreshed. *)
  Phys_mem.blit_from_bytes t.mem ~src ~src_off:0 ~dst:addr ~len;
  let pos = ref addr and off = ref 0 and remaining = ref len in
  while !remaining > 0 do
    let in_line = t.cfg.line_size - (!pos land t.line_mask) in
    let chunk = Int.min !remaining in_line in
    let tag = line_tag t !pos in
    let i = line_index t tag in
    if tag_at t i = tag then
      Bytes.blit src !off t.data
        ((i lsl t.line_shift) + (!pos land t.line_mask))
        chunk;
    pos := !pos + chunk;
    off := !off + chunk;
    remaining := !remaining - chunk
  done;
  (* Write-through bus traffic: one word-sized write per word, amortized by
     the write buffer into a burst. *)
  Tc.cpu_access t.bus ~bytes:len ~overhead_cycles:1

let invalidate t ~addr ~len =
  let words = (len + 3) / 4 in
  Process.sleep t.eng
    (cpu_cycles_ns t (words * invalidate_cycles_per_word));
  if len > 0 then
    for tag = line_tag t addr to line_tag t (addr + len - 1) do
      let i = line_index t tag in
      if tag_at t i = tag then begin
        (* A line that holds a tag has its own chunk: nothing allocates. *)
        set_tag t i invalid;
        Metrics.incr t.m.m_invalidated_lines
      end
    done

let invalidate_all t =
  for c = 0 to Array.length t.chunks - 1 do
    let chunk = t.chunks.(c) in
    if chunk != t.blank then
      for j = 0 to t.chunk_mask do
        if chunk.(j) <> invalid then begin
          chunk.(j) <- invalid;
          Metrics.incr t.m.m_invalidated_lines
        end
      done
  done

(* Blank the tags of indices [lo, hi), a chunk at a time; blank chunks
   are skipped. *)
let rec blank_range t lo hi =
  if lo < hi then begin
    let c = lo lsr t.chunk_shift in
    let stop = Int.min hi ((c + 1) lsl t.chunk_shift) in
    let chunk = Array.unsafe_get t.chunks c in
    if chunk != t.blank then
      Array.fill chunk (lo land t.chunk_mask) (stop - lo) invalid;
    blank_range t stop hi
  end

(* The [lines] indices from the cursor, wrapping once: at most two
   ranges. *)
let pressure t ~lines =
  if lines > 0 then begin
    let nlines = t.index_mask + 1 in
    let c = t.pressure_cursor in
    let first = Int.min lines (nlines - c) in
    blank_range t c (c + first);
    blank_range t 0 (Int.min (lines - first) c);
    t.pressure_cursor <- (c + lines) land t.index_mask
  end

let dma_wrote t ~addr ~len =
  if len > 0 then
    for tag = line_tag t addr to line_tag t (addr + len - 1) do
      let i = line_index t tag in
      match t.cfg.coherence with
      | Hardware_update ->
          (* The 3000/600's second-level cache is updated (and, as modelled
             here, allocated) by DMA writes, so arriving network data can
             be read back at cache speed (paper §2.7/§4). *)
          fill_line t i tag
      | Software ->
          if tag_at t i = tag then Metrics.incr t.m.m_stale_overlaps
    done

let resident t ~addr =
  let tag = line_tag t addr in
  tag_at t (line_index t tag) = tag

let stats t : stats =
  {
    hits = Metrics.counter_value t.m.m_hits;
    misses = Metrics.counter_value t.m.m_misses;
    invalidated_lines = Metrics.counter_value t.m.m_invalidated_lines;
    stale_overlaps = Metrics.counter_value t.m.m_stale_overlaps;
    stale_reads = Metrics.counter_value t.m.m_stale_reads;
  }
