module Vspace = Osiris_mem.Vspace
module Pbuf = Osiris_mem.Pbuf

type seg = { vaddr : int; len : int }

type t = {
  vs : Vspace.t;
  mutable hdr_base : int; (* vaddr of the header page; -1 when absent *)
  mutable hdr_off : int; (* first used byte within the header page *)
  mutable data : seg list;
  mutable owned : int list; (* region base vaddrs to free on dispose *)
  mutable finalizers : (unit -> unit) list;
  mutable disposed : bool;
  mutable congestion_marked : bool;
      (* out-of-band congestion signal: set by the driver when any cell
         of the delivered PDU carried the switch's mark bit *)
}

let vspace t = t.vs

let of_segs vs segs =
  List.iter
    (fun s -> if s.len < 0 || s.vaddr < 0 then invalid_arg "Msg.of_segs")
    segs;
  let data = List.filter (fun s -> s.len > 0) segs in
  { vs; hdr_base = -1; hdr_off = 0; data; owned = []; finalizers = [];
    disposed = false; congestion_marked = false }

let create vs ~vaddr ~len = of_segs vs [ { vaddr; len } ]

(* Move [len] bytes between virtual memory at [vaddr] and [b] from [off],
   one page at a time, with no copy in between. *)
let rec write_region vs ~vaddr b ~off ~len =
  if len > 0 then begin
    let ps = Vspace.page_size vs in
    let chunk = Int.min len (ps - (vaddr mod ps)) in
    Osiris_mem.Phys_mem.blit_from_bytes (Vspace.mem vs) ~src:b ~src_off:off
      ~dst:(Vspace.translate vs vaddr) ~len:chunk;
    write_region vs ~vaddr:(vaddr + chunk) b ~off:(off + chunk)
      ~len:(len - chunk)
  end

let rec read_region vs ~vaddr b ~off ~len =
  if len > 0 then begin
    let ps = Vspace.page_size vs in
    let chunk = Int.min len (ps - (vaddr mod ps)) in
    Osiris_mem.Phys_mem.blit_to_bytes (Vspace.mem vs)
      ~src:(Vspace.translate vs vaddr) ~dst:b ~dst_off:off ~len:chunk;
    read_region vs ~vaddr:(vaddr + chunk) b ~off:(off + chunk)
      ~len:(len - chunk)
  end

(* Apply [move] (one of the two above) to message bytes [off, off + len)
   and [b] from [b_off], segment by segment. *)
let rec across vs segs ~off b ~b_off ~len move =
  if len > 0 then
    match segs with
    | [] -> invalid_arg "Msg: range beyond message end"
    | s :: rest ->
        if off >= s.len then across vs rest ~off:(off - s.len) b ~b_off ~len move
        else begin
          let chunk = Int.min len (s.len - off) in
          move vs ~vaddr:(s.vaddr + off) b ~off:b_off ~len:chunk;
          across vs rest ~off:0 b ~b_off:(b_off + chunk) ~len:(len - chunk) move
        end

let alloc vs ~len ?(page_offset = 0) ?fill () =
  let vaddr = Vspace.alloc_offset vs ~len ~offset:page_offset in
  (match fill with
  | None -> ()
  | Some f -> write_region vs ~vaddr (Bytes.init len f) ~off:0 ~len);
  {
    vs;
    hdr_base = -1;
    hdr_off = 0;
    data = [ { vaddr; len } ];
    owned = [ vaddr ];
    finalizers = [];
    disposed = false;
    congestion_marked = false;
  }

let segs t =
  if t.hdr_base >= 0 && t.hdr_off < Vspace.page_size t.vs then
    { vaddr = t.hdr_base + t.hdr_off;
      len = Vspace.page_size t.vs - t.hdr_off }
    :: t.data
  else t.data

let length t = List.fold_left (fun acc s -> acc + s.len) 0 (segs t)

let push t ~len writer =
  if len <= 0 then invalid_arg "Msg.push: non-positive header length";
  if t.hdr_base < 0 then begin
    let ps = Vspace.page_size t.vs in
    let base = Vspace.alloc t.vs ~len:ps in
    t.hdr_base <- base;
    t.hdr_off <- ps;
    t.owned <- base :: t.owned
  end;
  if t.hdr_off - len < 0 then failwith "Msg.push: header area overflow";
  let b = Bytes.make len '\000' in
  writer b;
  t.hdr_off <- t.hdr_off - len;
  write_region t.vs ~vaddr:(t.hdr_base + t.hdr_off) b ~off:0 ~len

let peek t ~off ~len =
  let out = Bytes.create len in
  across t.vs (segs t) ~off out ~b_off:0 ~len read_region;
  out

let pop t ~len =
  let b = peek t ~off:0 ~len in
  (* Strip from the header area first, then from data segments. *)
  let remaining = ref len in
  if t.hdr_base >= 0 then begin
    let ps = Vspace.page_size t.vs in
    let avail = ps - t.hdr_off in
    let strip = Int.min avail !remaining in
    t.hdr_off <- t.hdr_off + strip;
    remaining := !remaining - strip
  end;
  let rec strip_data segs n =
    if n = 0 then segs
    else
      match segs with
      | [] -> invalid_arg "Msg.pop: beyond message end"
      | s :: rest ->
          if n >= s.len then strip_data rest (n - s.len)
          else { vaddr = s.vaddr + n; len = s.len - n } :: rest
  in
  t.data <- strip_data t.data !remaining;
  b

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > length t then
    invalid_arg "Msg.sub: range out of bounds";
  let rec take segs off len acc =
    if len = 0 then List.rev acc
    else
      match segs with
      | [] -> List.rev acc
      | s :: rest ->
          if off >= s.len then take rest (off - s.len) len acc
          else begin
            let chunk = Int.min len (s.len - off) in
            take rest 0 (len - chunk)
              ({ vaddr = s.vaddr + off; len = chunk } :: acc)
          end
  in
  { vs = t.vs; hdr_base = -1; hdr_off = 0;
    data = take (segs t) off len []; owned = []; finalizers = [];
    disposed = false; congestion_marked = t.congestion_marked }

let pbufs t =
  Pbuf.coalesce
    (List.concat_map
       (fun s -> Vspace.phys_buffers t.vs ~vaddr:s.vaddr ~len:s.len)
       (segs t))

let read_all t = peek t ~off:0 ~len:(length t)

let blit_into t ~off ~src =
  let len = Bytes.length src in
  if off < 0 || off + len > length t then
    invalid_arg "Msg.blit_into: range out of bounds";
  across t.vs (segs t) ~off src ~b_off:0 ~len write_region

let add_finalizer t f = t.finalizers <- f :: t.finalizers

let set_marked t = t.congestion_marked <- true

let marked t = t.congestion_marked

let dispose t =
  if not t.disposed then begin
    t.disposed <- true;
    List.iter (fun base -> Vspace.free t.vs base) t.owned;
    t.owned <- [];
    t.data <- [];
    t.hdr_base <- -1;
    let fs = t.finalizers in
    t.finalizers <- [];
    List.iter (fun f -> f ()) fs
  end
