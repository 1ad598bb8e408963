module Bits = Osiris_util.Bits

(* Storage is two levels deep. A frame's slot holds the shared [fresh]
   table, whose every entry is [unwritten], until the frame's first
   write gives it a table of its own; a block's entry holds [unwritten]
   until its first write gives it the next zero-filled block. So a host
   costs memory for the blocks its run writes, not for whole pages, let
   alone its whole image. Blocks are [block_bytes] long (a page, if
   pages are smaller), and every address splits into frame, block and
   offset with shifts and masks: sizes are powers of two.

   The free frames form a doubly linked list over frame indices. Its
   order is part of the model, since it fixes every physical address:
   [alloc_frame] takes the first frame, [free_frame] pushes in front,
   and [alloc_contiguous] unlinks its run where it sits. [free_prev]
   doubles as the free map: an allocated frame's slot holds [taken]. *)

(* 1 KB (DESIGN §19): the fat-tree workload's writes fill 4.6 MB of
   1 KB blocks, against 6.2 MB of 2 KB blocks and 24.7 MB of 8 KB pages;
   512 B would save 1.5 MB more at twice the block boundaries per copy. *)
let block_bytes = 1024

(* Blocks are numbered in the order their first writes come and cut from
   slabs of [slab_bytes]. A slab is larger than the largest object the
   minor heap takes (256 words), so it is allocated straight in the
   major heap; a 1 KB block of its own would be allocated in the minor
   heap and copied out of it at the next minor collection. A host
   leaves at most one slab part-used. *)
let slab_bytes = 4096

let unwritten = -1
let taken = -2
let none = -1

type t = {
  frames : int array array; (* frame [f]'s block numbers, or [fresh] *)
  fresh : int array; (* all [unwritten]; shared, never written *)
  mutable slabs : Bytes.t array; (* block [b] in slab [b lsr slab_shift] *)
  mutable next_block : int; (* blocks handed out *)
  slab_shift : int;
  slab_mask : int; (* block number within its slab *)
  page_size : int;
  page_shift : int;
  block_size : int;
  block_shift : int;
  block_mask : int; (* offset within a block *)
  block_index_mask : int; (* block number within its frame *)
  nframes : int;
  free_next : int array;
  free_prev : int array;
  mutable free_first : int;
  mutable free_count : int;
  mutable resident : int;
}

let create ?scramble ~size ~page_size () =
  if size <= 0 || page_size <= 0 || size mod page_size <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of page_size";
  if not (Bits.is_pow2 page_size) then
    invalid_arg "Phys_mem.create: page_size must be a power of two";
  let nframes = size / page_size in
  let order = Array.init nframes (fun i -> i) in
  (match scramble with Some rng -> Osiris_util.Rng.shuffle rng order | None -> ());
  let free_next = Array.make nframes none and free_prev = Array.make nframes none in
  for i = 0 to nframes - 1 do
    if i > 0 then free_prev.(order.(i)) <- order.(i - 1);
    if i < nframes - 1 then free_next.(order.(i)) <- order.(i + 1)
  done;
  let block_size = Int.min block_bytes page_size in
  let fresh = Array.make (page_size / block_size) unwritten in
  {
    frames = Array.make nframes fresh;
    fresh;
    slabs = [||];
    next_block = 0;
    slab_shift = Bits.log2 (slab_bytes / block_size);
    slab_mask = (slab_bytes / block_size) - 1;
    page_size;
    page_shift = Bits.log2 page_size;
    block_size;
    block_shift = Bits.log2 block_size;
    block_mask = block_size - 1;
    block_index_mask = (page_size / block_size) - 1;
    nframes;
    free_next;
    free_prev;
    free_first = order.(0);
    free_count = nframes;
    resident = 0;
  }

let size t = t.nframes * t.page_size
let page_size t = t.page_size
let free_frames t = t.free_count
let resident_frames t = t.resident
let is_free t f = t.free_prev.(f) <> taken

let unlink t f =
  let p = t.free_prev.(f) and n = t.free_next.(f) in
  if p = none then t.free_first <- n else t.free_next.(p) <- n;
  if n <> none then t.free_prev.(n) <- p;
  t.free_prev.(f) <- taken;
  t.free_count <- t.free_count - 1

let alloc_frame t =
  let f = t.free_first in
  if f = none then raise Out_of_memory;
  unlink t f;
  f * t.page_size

(* Lowest base whose [nframes] frames are all free, or [none]. Frames
   [base, base + i) are known free; a taken frame at [base + i] rules
   out every base up to it. *)
let rec first_fit t ~nframes base i =
  if i = nframes then base
  else if base + nframes > t.nframes then none
  else if is_free t (base + i) then first_fit t ~nframes base (i + 1)
  else first_fit t ~nframes (base + i + 1) 0

let alloc_contiguous t ~nframes =
  if nframes <= 0 then invalid_arg "Phys_mem.alloc_contiguous";
  let base = first_fit t ~nframes 0 0 in
  if base = none then None
  else begin
    for f = base to base + nframes - 1 do
      unlink t f
    done;
    Some (base * t.page_size)
  end

let free_frame t addr =
  if addr mod t.page_size <> 0 then
    invalid_arg "Phys_mem.free_frame: unaligned address";
  let f = addr / t.page_size in
  if f < 0 || f >= t.nframes then invalid_arg "Phys_mem.free_frame: bad frame";
  if is_free t f then invalid_arg "Phys_mem.free_frame: double free";
  t.free_prev.(f) <- none;
  t.free_next.(f) <- t.free_first;
  if t.free_first <> none then t.free_prev.(t.free_first) <- f;
  t.free_first <- f;
  t.free_count <- t.free_count + 1

let check t addr len =
  if addr < 0 || len < 0 || addr + len > size t then
    (invalid_arg
       (Printf.sprintf "Phys_mem: access [%#x,+%d) out of bounds" addr len)
    [@osiris.alloc_ok "cold error path: raises, never returns"])

let check_bytes b off len =
  if off < 0 || off + len > Bytes.length b then
    (invalid_arg "Phys_mem: byte range out of bounds"
    [@osiris.alloc_ok "cold error path: raises, never returns"])

(* The number of the block holding [addr]: [unwritten] if no write has
   reached it. *)
let block t addr =
  Array.unsafe_get
    (Array.unsafe_get t.frames (addr lsr t.page_shift))
    ((addr lsr t.block_shift) land t.block_index_mask)

(* Block [b]'s slab, and where in it the block starts. *)
let slab t b = Array.unsafe_get t.slabs (b lsr t.slab_shift)
let base t b = (b land t.slab_mask) lsl t.block_shift

(* A zero-filled block, from a new slab when the last one is used up. *)
let new_block t =
  let b = t.next_block in
  let s = b lsr t.slab_shift in
  if b land t.slab_mask = 0 then begin
    if s = Array.length t.slabs then begin
      let grown =
        (Array.make (Int.max 4 (2 * s)) Bytes.empty
        [@osiris.alloc_ok
          "the slab table doubles: a logarithmic number of times per run"])
      in
      Array.blit t.slabs 0 grown 0 s;
      t.slabs <- grown
    end;
    t.slabs.(s) <-
      (Bytes.make slab_bytes '\000'
      [@osiris.alloc_ok
        "first write to a block whose slab is used up: once per slab the \
         run ever writes, then reused"])
  end;
  t.next_block <- b + 1;
  b

(* The number of the block holding [addr], materialised (with its
   frame's table) on its first write. *)
let writable t addr =
  let f = addr lsr t.page_shift in
  let blocks = Array.unsafe_get t.frames f in
  let blocks =
    if blocks != t.fresh then blocks
    else begin
      let blocks =
        (Array.make (t.block_index_mask + 1) unwritten
        [@osiris.alloc_ok
          "first write to a frame: its block table, once per frame the \
           run ever writes"])
      in
      t.frames.(f) <- blocks;
      t.resident <- t.resident + 1;
      blocks
    end
  in
  let i = (addr lsr t.block_shift) land t.block_index_mask in
  let b = Array.unsafe_get blocks i in
  if b <> unwritten then b
  else begin
    let b = new_block t in
    blocks.(i) <- b;
    b
  end

(* The loops below split a range at block boundaries. They are
   tail-recursive top-level functions rather than local closures, so a
   call allocates nothing beyond first-write blocks. *)

let rec copy_in t ~src ~src_off ~dst ~len =
  if len > 0 then begin
    let off = dst land t.block_mask in
    let n = Int.min len (t.block_size - off) in
    let b = writable t dst in
    Bytes.blit src src_off (slab t b) (base t b + off) n;
    copy_in t ~src ~src_off:(src_off + n) ~dst:(dst + n) ~len:(len - n)
  end

let rec copy_out t ~src ~dst ~dst_off ~len =
  if len > 0 then begin
    let off = src land t.block_mask in
    let n = Int.min len (t.block_size - off) in
    let b = block t src in
    if b = unwritten then Bytes.fill dst dst_off n '\000'
    else Bytes.blit (slab t b) (base t b + off) dst dst_off n;
    copy_out t ~src:(src + n) ~dst ~dst_off:(dst_off + n) ~len:(len - n)
  end

let read_byte t addr =
  check t addr 1;
  let b = block t addr in
  if b = unwritten then 0
  else Char.code (Bytes.get (slab t b) (base t b + (addr land t.block_mask)))

let write_byte t addr v =
  check t addr 1;
  let b = writable t addr in
  Bytes.set (slab t b)
    (base t b + (addr land t.block_mask))
    (Char.chr (v land 0xff))

let blit_from_bytes t ~src ~src_off ~dst ~len =
  check t dst len;
  check_bytes src src_off len;
  copy_in t ~src ~src_off ~dst ~len

let blit_to_bytes t ~src ~dst ~dst_off ~len =
  check t src len;
  check_bytes dst dst_off len;
  copy_out t ~src ~dst ~dst_off ~len

let bytes_of_region t ~addr ~len =
  check t addr len;
  let out = Bytes.create len in
  copy_out t ~src:addr ~dst:out ~dst_off:0 ~len;
  out

(* [b.[off, off + len)] holds only zero bytes. *)
let rec zeros b off len =
  len = 0 || (Bytes.unsafe_get b off = '\000' && zeros b (off + 1) (len - 1))

(* An 8-byte load without the bounds check, which costs half the
   compare's time: [equal_bytes] checks both ranges before it loads. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* [a.[i, i + len)] equals [b.[j, j + len)]: eight bytes at a time,
   compared unboxed, then one. *)
let rec same a i b j len =
  if len >= 8 then get64u a i = get64u b j && same a (i + 8) b (j + 8) (len - 8)
  else
    len = 0
    || Bytes.unsafe_get a i = Bytes.unsafe_get b j
       && same a (i + 1) b (j + 1) (len - 1)

let rec equal_in t ~addr b ~off ~len =
  len = 0
  ||
  let boff = addr land t.block_mask in
  let n = Int.min len (t.block_size - boff) in
  let blk = block t addr in
  (if blk = unwritten then zeros b off n
   else same (slab t blk) (base t blk + boff) b off n)
  && equal_in t ~addr:(addr + n) b ~off:(off + n) ~len:(len - n)

let equal_bytes t ~addr ~len b ~off =
  check t addr len;
  check_bytes b off len;
  equal_in t ~addr b ~off ~len

let rec crc_in t crc ~addr ~len =
  if len = 0 then crc
  else begin
    let boff = addr land t.block_mask in
    let n = Int.min len (t.block_size - boff) in
    let blk = block t addr in
    crc_in t
      (if blk = unwritten then Osiris_util.Crc32.update_zeros crc ~len:n
       else
         Osiris_util.Crc32.update crc (slab t blk) ~off:(base t blk + boff)
           ~len:n)
      ~addr:(addr + n) ~len:(len - n)
  end

let crc32 t crc ~addr ~len =
  check t addr len;
  crc_in t crc ~addr ~len

let fill t ~addr ~len c =
  check t addr len;
  blit_from_bytes t ~src:(Bytes.make len c) ~src_off:0 ~dst:addr ~len
