module Msg = Osiris_xkernel.Msg
module Cpu = Osiris_os.Cpu
module Checksum = Osiris_util.Checksum

type addr = int32

let header_size = 20

type config = { mtu : int; aligned_mtu : bool }

let default_config = { mtu = 16 * 1024; aligned_mtu = true }

let fragment_data_size cfg ~page_size =
  let raw = cfg.mtu - header_size in
  let d =
    if cfg.aligned_mtu && raw >= page_size then raw / page_size * page_size
    else raw
  in
  Int.max 8 (d / 8 * 8)

type stats = {
  mutable datagrams_sent : int;
  mutable fragments_sent : int;
  mutable fragments_received : int;
  mutable datagrams_delivered : int;
  mutable header_checksum_errors : int;
  mutable reassembly_drops : int;
}

type reasm = {
  mutable frags : (int * int * Msg.t) list; (* (off, len, payload view) *)
  mutable holders : Msg.t list; (* original messages to dispose *)
  mutable total : int; (* -1 until the last fragment arrives *)
  mutable got : int;
  mutable last_arrival : int; (* fragment-counter timestamp, for eviction *)
}

type t = {
  ctx : Ctx.t;
  cfg : config;
  src : addr;
  page_size : int;
  send : Msg.t -> unit;
  deliver : proto:int -> src:addr -> Msg.t -> unit;
  table : (addr * int, reasm) Hashtbl.t;
  mutable next_id : int;
  mutable arrival_clock : int;
  max_partial : int;
  stats : stats;
}

let create ctx cfg ~src ~page_size ~send ~deliver =
  {
    ctx;
    cfg;
    src;
    page_size;
    send;
    deliver;
    table = Hashtbl.create 16;
    next_id = 1;
    arrival_clock = 0;
    max_partial = 8;
    stats =
      {
        datagrams_sent = 0;
        fragments_sent = 0;
        fragments_received = 0;
        datagrams_delivered = 0;
        header_checksum_errors = 0;
        reassembly_drops = 0;
      };
  }

let build_header ~total_len ~id ~off ~more ~ttl ~proto ~src ~dst b =
  Bytes.set b 0 '\x45';
  (* Footnote 5: IP and UDP were "modified to support message sizes larger
     than 64KB". The fragment offset's high bits overflow into the (unused)
     TOS byte, extending the offset space to 2^21 8-byte units. *)
  let units = off / 8 in
  Bytes.set b 1 (Char.chr ((units lsr 13) land 0xff));
  Bytes.set_uint16_be b 2 total_len;
  Bytes.set_uint16_be b 4 id;
  let frag_field = (units land 0x1fff) lor (if more then 0x2000 else 0) in
  Bytes.set_uint16_be b 6 frag_field;
  Bytes.set b 8 (Char.chr ttl);
  Bytes.set b 9 (Char.chr proto);
  Bytes.set_uint16_be b 10 0;
  Bytes.set_int32_be b 12 src;
  Bytes.set_int32_be b 16 dst;
  Bytes.set_uint16_be b 10 (Checksum.compute b ~off:0 ~len:header_size)

let output t ~dst ~proto msg =
  let len = Msg.length msg in
  let id = t.next_id land 0xffff in
  t.next_id <- t.next_id + 1;
  let per_frag = fragment_data_size t.cfg ~page_size:t.page_size in
  t.stats.datagrams_sent <- t.stats.datagrams_sent + 1;
  let rec go off =
    if off < len then begin
      let chunk = Int.min per_frag (len - off) in
      let more = off + chunk < len in
      Cpu.consume t.ctx.Ctx.cpu t.ctx.Ctx.costs.Ctx.ip_output_per_fragment;
      let frag = Msg.sub msg ~off ~len:chunk in
      Msg.push frag ~len:header_size
        (build_header ~total_len:(header_size + chunk) ~id ~off ~more ~ttl:32
           ~proto ~src:t.src ~dst);
      t.stats.fragments_sent <- t.stats.fragments_sent + 1;
      t.send frag;
      go (off + chunk)
    end
  in
  go 0

let fragment_images ?(id = 0x1234) cfg ~page_size ~src ~dst ~proto payload =
  let len = Bytes.length payload in
  let per_frag = fragment_data_size cfg ~page_size in
  let rec go off acc =
    if off >= len then List.rev acc
    else begin
      let chunk = Int.min per_frag (len - off) in
      let more = off + chunk < len in
      let img = Bytes.create (header_size + chunk) in
      let hdr = Bytes.create header_size in
      build_header ~total_len:(header_size + chunk) ~id ~off ~more ~ttl:32
        ~proto ~src ~dst hdr;
      Bytes.blit hdr 0 img 0 header_size;
      Bytes.blit payload off img header_size chunk;
      go (off + chunk) (img :: acc)
    end
  in
  go 0 []

let try_complete t key r =
  if r.total >= 0 then begin
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) r.frags in
    let covered =
      let rec go expect = function
        | [] -> expect
        | (off, len, _) :: rest ->
            if off <> expect then -1
            else
              let e = go (expect + len) rest in
              e
      in
      go 0 sorted
    in
    if covered = r.total then begin
      Hashtbl.remove t.table key;
      let segs =
        List.concat_map (fun (_, _, view) -> Msg.segs view) sorted
      in
      let dg =
        match sorted with
        | (_, _, first) :: _ -> Msg.of_segs (Msg.vspace first) segs
        | [] -> assert false
      in
      let holders = r.holders in
      Msg.add_finalizer dg (fun () -> List.iter Msg.dispose holders);
      t.stats.datagrams_delivered <- t.stats.datagrams_delivered + 1;
      Some dg
    end
    else None
  end
  else None

let input t msg =
  t.stats.fragments_received <- t.stats.fragments_received + 1;
  Cpu.consume t.ctx.Ctx.cpu t.ctx.Ctx.costs.Ctx.ip_input_per_fragment;
  if Msg.length msg < header_size then begin
    t.stats.header_checksum_errors <- t.stats.header_checksum_errors + 1;
    Msg.dispose msg
  end
  else begin
    (* Header parse: a real CPU read, through the cache. A header is
       good when its checksum holds and its total length is the PDU the
       driver delivered: under lazy invalidation the buffer's previous
       datagram can leave a header in the cache that passes its own
       checksum, and its length and fragment fields belong to that
       datagram. *)
    let good hdr =
      Checksum.verify hdr ~off:0 ~len:header_size
      && Bytes.get_uint16_be hdr 2 = Msg.length msg
    in
    let hdr = Ctx.read_through_cache t.ctx msg ~off:0 ~len:header_size in
    if not (good hdr) then begin
      t.stats.header_checksum_errors <- t.stats.header_checksum_errors + 1;
      (* Lazy-invalidation discipline (§2.3): on error, invalidate and
         re-read before declaring the fragment bad. *)
      Ctx.invalidate_msg t.ctx msg ~off:0 ~len:header_size;
      let hdr2 = Ctx.read_through_cache t.ctx msg ~off:0 ~len:header_size in
      if not (good hdr2) then begin
        Msg.dispose msg;
        raise Exit
      end
    end;
    let hdr = Ctx.read_through_cache t.ctx msg ~off:0 ~len:header_size in
    let total_len = Bytes.get_uint16_be hdr 2 in
    let id = Bytes.get_uint16_be hdr 4 in
    let frag_field = Bytes.get_uint16_be hdr 6 in
    let hi = Char.code (Bytes.get hdr 1) in
    let off = ((frag_field land 0x1fff) lor (hi lsl 13)) * 8 in
    let more = frag_field land 0x2000 <> 0 in
    let proto = Char.code (Bytes.get hdr 9) in
    let src = Bytes.get_int32_be hdr 12 in
    let data_len = total_len - header_size in
    if total_len <> Msg.length msg then begin
      (* The parse's own read must agree with the check above. *)
      Osiris_obs.Trace.emitf Osiris_obs.Trace.Protocol
        ~now:(Osiris_sim.Engine.now (Osiris_os.Cpu.engine t.ctx.Ctx.cpu))
        "ip: bad fragment total_len=%d msg_len=%d id=%d off=%d more=%b"
        total_len (Msg.length msg) id off more;
      t.stats.header_checksum_errors <- t.stats.header_checksum_errors + 1;
      Msg.dispose msg;
      raise Exit
    end;
    let payload = Msg.sub msg ~off:header_size ~len:data_len in
    let key = (src, id) in
    t.arrival_clock <- t.arrival_clock + 1;
    let r =
      match Hashtbl.find_opt t.table key with
      | Some r -> r
      | None ->
          (* Bounded reassembly state: when the table is full (fragments
             lost under overload never complete), evict the stalest
             partial datagram and release its buffers. *)
          if Hashtbl.length t.table >= t.max_partial then begin
            let victim =
              Hashtbl.fold
                (fun k r acc ->
                  match acc with
                  | Some (_, v) when v.last_arrival <= r.last_arrival -> acc
                  | _ -> Some (k, r))
                t.table None
            in
            match victim with
            | Some (k, v) ->
                Hashtbl.remove t.table k;
                List.iter Msg.dispose v.holders;
                t.stats.reassembly_drops <- t.stats.reassembly_drops + 1
            | None -> ()
          end;
          let r =
            { frags = []; holders = []; total = -1; got = 0; last_arrival = 0 }
          in
          Hashtbl.replace t.table key r;
          r
    in
    r.last_arrival <- t.arrival_clock;
    (* Duplicate fragments (retransmission, or ID reuse under loss) replace
       nothing: keep the first copy and drop the newcomer. *)
    if List.exists (fun (o, _, _) -> o = off) r.frags then begin
      Msg.dispose msg;
      raise Exit
    end;
    r.frags <- (off, data_len, payload) :: r.frags;
    r.holders <- msg :: r.holders;
    r.got <- r.got + data_len;
    if not more then r.total <- off + data_len;
    match try_complete t key r with
    | Some dg -> t.deliver ~proto ~src dg
    | None -> ()
  end

let input t msg = try input t msg with Exit -> ()

let stats t = t.stats
let partial_reassemblies t = Hashtbl.length t.table
