open Osiris_sim
module Phys_mem = Osiris_mem.Phys_mem
module Tc = Osiris_bus.Turbochannel
module Metrics = Osiris_obs.Metrics

type coherence = Software | Hardware_update

type config = {
  size : int;
  line_size : int;
  coherence : coherence;
  cpu_hz : int;
  hit_cycles_per_word : int;
  fill_overhead_cycles : int;
  invalidate_cycles_per_word : int;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidated_lines : int;
  mutable stale_overlaps : int;
  mutable stale_reads : int;
}

(* Registry handles behind [stats]; [stats t] snapshots them. *)
type m = {
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_invalidated_lines : Metrics.counter;
  m_stale_overlaps : Metrics.counter;
  m_stale_reads : Metrics.counter;
}

type t = {
  eng : Engine.t;
  mem : Phys_mem.t;
  bus : Tc.t;
  cfg : config;
  nlines : int;
  tags : int array; (* tag of the line held at each index; -1 = invalid *)
  data : Bytes.t; (* line [i]'s bytes at [i * line_size] *)
  mutable pressure_cursor : int;
  m : m;
}

let invalid = -1

let create eng ~mem ~bus cfg =
  if cfg.size <= 0 || cfg.line_size <= 0 || cfg.size mod cfg.line_size <> 0
  then invalid_arg "Data_cache.create: size must be a multiple of line_size";
  let nlines = cfg.size / cfg.line_size in
  {
    eng;
    mem;
    bus;
    cfg;
    nlines;
    pressure_cursor = 0;
    tags = Array.make nlines invalid;
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

let line_tag addr line_size = addr / line_size
let line_index t addr = line_tag addr t.cfg.line_size mod t.nlines
let line_base tag line_size = tag * line_size

let fill_line t i tag =
  Phys_mem.blit_to_bytes t.mem
    ~src:(line_base tag t.cfg.line_size)
    ~dst:t.data ~dst_off:(i * t.cfg.line_size) ~len:t.cfg.line_size;
  t.tags.(i) <- tag

(* Ensure the line containing [addr] is resident; charge fill cost on miss
   and hit cost for consuming [words_used] words. Returns the line's
   index. *)
let touch_line t addr ~words_used =
  let tag = line_tag addr t.cfg.line_size in
  let i = line_index t addr in
  if t.tags.(i) = tag then Metrics.incr t.m.m_hits
  else begin
    Metrics.incr t.m.m_misses;
    (* Fill from main memory across the bus (contends on a shared bus). *)
    Tc.cpu_access t.bus ~bytes:t.cfg.line_size
      ~overhead_cycles:t.cfg.fill_overhead_cycles;
    fill_line t i tag
  end;
  Process.sleep t.eng
    (cpu_cycles_ns t (words_used * t.cfg.hit_cycles_per_word));
  i

let read_into t ~addr ~len ~dst ~dst_off =
  if len < 0 then invalid_arg "Data_cache.read_into: negative length";
  let pos = ref addr and out = ref dst_off and remaining = ref len in
  while !remaining > 0 do
    let in_line = t.cfg.line_size - (!pos mod t.cfg.line_size) in
    let chunk = min !remaining in_line in
    let words = (chunk + 3) / 4 in
    let i = touch_line t !pos ~words_used:words in
    Bytes.blit t.data
      ((i * t.cfg.line_size) + (!pos mod t.cfg.line_size))
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
    let in_line = t.cfg.line_size - (!pos mod t.cfg.line_size) in
    let chunk = min !remaining in_line in
    let i = line_index t !pos in
    if t.tags.(i) = line_tag !pos t.cfg.line_size then
      Bytes.blit src !off t.data
        ((i * t.cfg.line_size) + (!pos mod t.cfg.line_size))
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
    (cpu_cycles_ns t (words * t.cfg.invalidate_cycles_per_word));
  if len > 0 then
    for tag = line_tag addr t.cfg.line_size
        to line_tag (addr + len - 1) t.cfg.line_size do
      let i = tag mod t.nlines in
      if t.tags.(i) = tag then begin
        t.tags.(i) <- invalid;
        Metrics.incr t.m.m_invalidated_lines
      end
    done

let invalidate_all t =
  for i = 0 to t.nlines - 1 do
    if t.tags.(i) <> invalid then begin
      t.tags.(i) <- invalid;
      Metrics.incr t.m.m_invalidated_lines
    end
  done

(* The [lines] indices from the cursor, wrapping once: at most two
   ranges. *)
let pressure t ~lines =
  if lines > 0 then begin
    let c = t.pressure_cursor in
    let first = min lines (t.nlines - c) in
    Array.fill t.tags c first invalid;
    Array.fill t.tags 0 (min (lines - first) c) invalid;
    t.pressure_cursor <- (c + lines) mod t.nlines
  end

let dma_wrote t ~addr ~len =
  if len > 0 then
    for tag = line_tag addr t.cfg.line_size
        to line_tag (addr + len - 1) t.cfg.line_size do
      let i = tag mod t.nlines in
      match t.cfg.coherence with
      | Hardware_update ->
          (* The 3000/600's second-level cache is updated (and, as modelled
             here, allocated) by DMA writes, so arriving network data can
             be read back at cache speed (paper §2.7/§4). *)
          fill_line t i tag
      | Software ->
          if t.tags.(i) = tag then Metrics.incr t.m.m_stale_overlaps
    done

let resident t ~addr = t.tags.(line_index t addr) = line_tag addr t.cfg.line_size

let stats t : stats =
  {
    hits = Metrics.counter_value t.m.m_hits;
    misses = Metrics.counter_value t.m.m_misses;
    invalidated_lines = Metrics.counter_value t.m.m_invalidated_lines;
    stale_overlaps = Metrics.counter_value t.m.m_stale_overlaps;
    stale_reads = Metrics.counter_value t.m.m_stale_reads;
  }
