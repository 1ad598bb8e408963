module Msg = Osiris_xkernel.Msg
module Cpu = Osiris_os.Cpu
module Checksum = Osiris_util.Checksum

let header_size = 8
let protocol_number = 17

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable checksum_errors : int;
  mutable stale_recoveries : int;
  mutable no_port_drops : int;
}

type t = {
  ctx : Ctx.t;
  checksum : bool;
  ip : Ip.t;
  ports : (int, src:Ip.addr -> src_port:int -> Msg.t -> unit) Hashtbl.t;
  stats : stats;
}

(* Parse the header and verify the data checksum, reading everything
   through the cache. *)
let parse_and_verify t msg =
  let hdr = Ctx.read_through_cache t.ctx msg ~off:0 ~len:header_size in
  let src_port = Bytes.get_uint16_be hdr 0 in
  let dst_port = Bytes.get_uint16_be hdr 2 in
  (* Length field 0 marks a large datagram (> 64 KB): the paper's UDP was
     "modified to support message sizes larger than 64 KB" (footnote 5);
     the real length then comes from the IP datagram. *)
  let field = Bytes.get_uint16_be hdr 4 in
  let dlen =
    if field = 0 then Msg.length msg - header_size else field - header_size
  in
  let cks = Bytes.get_uint16_be hdr 6 in
  let dlen = Int.min dlen (Msg.length msg - header_size) in
  let ok =
    if cks = 0 || not t.checksum then true
    else begin
      let sum = Ctx.checksum_msg t.ctx msg ~off:header_size ~len:dlen in
      Checksum.finish sum = cks || (cks = 0xffff && sum = 0xffff)
    end
  in
  (src_port, dst_port, dlen, ok)

let input t ~src msg =
  Cpu.consume t.ctx.Ctx.cpu t.ctx.Ctx.costs.Ctx.udp_input;
  if Msg.length msg < header_size then Msg.dispose msg
  else begin
    let (src_port, dst_port, dlen, ok) = parse_and_verify t msg in
    let (src_port, dst_port, dlen, verdict) =
      if ok then (src_port, dst_port, dlen, `Ok)
      else begin
        (* Lazy cache invalidation (§2.3): assume stale cache data,
           invalidate the whole datagram's lines — header included, since
           the checksum field itself may be stale — and re-evaluate before
           declaring an error. *)
        Ctx.invalidate_msg t.ctx msg ~off:0 ~len:(Msg.length msg);
        let (sp, dp, dl, ok2) = parse_and_verify t msg in
        if ok2 then begin
          t.stats.stale_recoveries <- t.stats.stale_recoveries + 1;
          (sp, dp, dl, `Ok)
        end
        else (sp, dp, dl, `Bad)
      end
    in
    ignore src_port;
    match verdict with
    | `Bad ->
        t.stats.checksum_errors <- t.stats.checksum_errors + 1;
        Msg.dispose msg
    | `Ok -> (
        match Hashtbl.find_opt t.ports dst_port with
        | None ->
            t.stats.no_port_drops <- t.stats.no_port_drops + 1;
            Msg.dispose msg
        | Some receiver ->
            let payload = Msg.sub msg ~off:header_size ~len:dlen in
            Msg.add_finalizer payload (fun () -> Msg.dispose msg);
            t.stats.delivered <- t.stats.delivered + 1;
            receiver ~src ~src_port payload)
  end

let create ctx ~checksum ~ip =
  let t =
    {
      ctx;
      checksum;
      ip;
      ports = Hashtbl.create 16;
      stats =
        {
          sent = 0;
          delivered = 0;
          checksum_errors = 0;
          stale_recoveries = 0;
          no_port_drops = 0;
        };
    }
  in
  t

let bind t ~port receiver =
  if Hashtbl.mem t.ports port then invalid_arg "Udp.bind: port in use";
  Hashtbl.replace t.ports port receiver

let output t ~dst ~src_port ~dst_port msg =
  Cpu.consume t.ctx.Ctx.cpu t.ctx.Ctx.costs.Ctx.udp_output;
  let dlen = Msg.length msg in
  let cks =
    if not t.checksum then 0
    else begin
      let sum = Ctx.checksum_msg t.ctx msg ~off:0 ~len:dlen in
      let v = Checksum.finish sum in
      if v = 0 then 0xffff else v
    end
  in
  let field = if header_size + dlen > 0xffff then 0 else header_size + dlen in
  Msg.push msg ~len:header_size (fun b ->
      Bytes.set_uint16_be b 0 src_port;
      Bytes.set_uint16_be b 2 dst_port;
      Bytes.set_uint16_be b 4 field;
      Bytes.set_uint16_be b 6 cks);
  t.stats.sent <- t.stats.sent + 1;
  Ip.output t.ip ~dst ~proto:protocol_number msg

let stats t = t.stats

let datagram_image ~src_port ~dst_port ~checksum payload =
  let dlen = Bytes.length payload in
  let img = Bytes.create (header_size + dlen) in
  let cks =
    if not checksum then 0
    else begin
      let sum = Checksum.ones_complement_sum payload ~off:0 ~len:dlen in
      let v = Checksum.finish sum in
      if v = 0 then 0xffff else v
    end
  in
  let field = if header_size + dlen > 0xffff then 0 else header_size + dlen in
  Bytes.set_uint16_be img 0 src_port;
  Bytes.set_uint16_be img 2 dst_port;
  Bytes.set_uint16_be img 4 field;
  Bytes.set_uint16_be img 6 cks;
  Bytes.blit payload 0 img header_size dlen;
  img
