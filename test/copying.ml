(* The copying forms of the per-byte primitives, kept test-side as
   oracles: each is the straightforward version that builds whole-PDU
   copies, against which the equivalence tests check the forms that
   read bytes where they lie. *)

module Phys_mem = Osiris_mem.Phys_mem
module Pbuf = Osiris_mem.Pbuf
module Vspace = Osiris_mem.Vspace
module Crc32 = Osiris_util.Crc32
module Cell = Osiris_atm.Cell
module Sar = Osiris_atm.Sar
module Msg = Osiris_xkernel.Msg

(* Concatenated copy of the regions named by a buffer list. *)
let bytes_of_pbufs mem bufs =
  let out = Bytes.create (Pbuf.total_len bufs) in
  let off = ref 0 in
  List.iter
    (fun (b : Pbuf.t) ->
      Phys_mem.blit_to_bytes mem ~src:b.Pbuf.addr ~dst:out ~dst_off:!off
        ~len:b.Pbuf.len;
      off := !off + b.Pbuf.len)
    bufs;
  out

(* Concatenated copy of the buffers a descriptor chain names. *)
let bytes_of_descs mem descs =
  bytes_of_pbufs mem
    (List.map
       (fun (d : Osiris_board.Desc.t) -> Pbuf.v ~addr:d.addr ~len:d.len)
       descs)

(* Does memory hold these bytes? A copy of each side, then compared. *)
let region_equals mem ~addr ~len b ~off =
  Bytes.equal (Phys_mem.bytes_of_region mem ~addr ~len) (Bytes.sub b off len)

(* AAL framing into a fresh zeroed buffer. *)
let frame pdu =
  let n = Bytes.length pdu in
  let total = Sar.framed_len n in
  let out = Bytes.make total '\000' in
  Bytes.blit pdu 0 out 0 n;
  Bytes.set_int32_be out (total - 8) (Int32.of_int n);
  Bytes.set_int32_be out (total - 4) (Crc32.compute out ~off:0 ~len:(total - 4));
  out

let deframe_check framed =
  let total = Bytes.length framed in
  if total < Sar.trailer_size || total mod Cell.data_size <> 0 then
    Error "deframe: bad framed length"
  else begin
    let crc_stored = Bytes.get_int32_be framed (total - 4) in
    let crc = Crc32.compute framed ~off:0 ~len:(total - 4) in
    if crc <> crc_stored then Error "deframe: CRC mismatch"
    else begin
      let n = Int32.to_int (Bytes.get_int32_be framed (total - 8)) in
      if n < 0 || Sar.framed_len n <> total then Error "deframe: bad length field"
      else Ok n
    end
  end

let deframe framed =
  match deframe_check framed with
  | Error _ as e -> e
  | Ok n -> Ok (Bytes.sub framed 0 n)

let segment ~vci ~nlinks pdu =
  let framed = frame pdu in
  let ncells = Bytes.length framed / Cell.data_size in
  List.init ncells (fun k ->
      Cell.make ~vci ~seq:k ~eom:(k + nlinks >= ncells)
        ~last_of_pdu:(k = ncells - 1)
        (Bytes.sub framed (k * Cell.data_size) Cell.data_size))

(* A virtual range read one page at a time into its own copy. *)
let read_region vs ~vaddr ~len =
  let ps = Vspace.page_size vs in
  let out = Bytes.create len in
  let rec go off =
    if off < len then begin
      let va = vaddr + off in
      let chunk = min (len - off) (ps - (va mod ps)) in
      let piece =
        Phys_mem.bytes_of_region (Vspace.mem vs) ~addr:(Vspace.translate vs va)
          ~len:chunk
      in
      Bytes.blit piece 0 out off chunk;
      go (off + chunk)
    end
  in
  go 0;
  out

(* A virtual range written one page at a time, each from its own
   copy. *)
let write_region vs ~vaddr b =
  let ps = Vspace.page_size vs in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let va = vaddr + off in
      let chunk = min (len - off) (ps - (va mod ps)) in
      Phys_mem.blit_from_bytes (Vspace.mem vs) ~src:(Bytes.sub b off chunk)
        ~src_off:0 ~dst:(Vspace.translate vs va) ~len:chunk;
      go (off + chunk)
    end
  in
  go 0

(* The whole message, segment by segment, each through its own copy. *)
let msg_contents m =
  Bytes.concat Bytes.empty
    (List.map
       (fun (s : Msg.seg) -> read_region (Msg.vspace m) ~vaddr:s.Msg.vaddr ~len:s.Msg.len)
       (Msg.segs m))
