(* Two PDU types ride the fabric: data segments (8-byte header + payload)
   on the forward VC and fixed-size acknowledgements on the reverse VC.
   Each carries a magic byte so that a PDU demultiplexed onto the wrong
   VC (e.g. by a corrupted cell header that still passed the AAL check)
   is rejected instead of being misread. *)

let data_header_size = 8
let ack_size = 12
let data_magic = 0xD5
let ack_magic = 0xAC
let flag_ece = 0x01

let put_u32 b off v =
  Bytes.set_uint8 b off ((v lsr 24) land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 16) land 0xff);
  Bytes.set_uint8 b (off + 2) ((v lsr 8) land 0xff);
  Bytes.set_uint8 b (off + 3) (v land 0xff)

let get_u32 b off =
  (Bytes.get_uint8 b off lsl 24)
  lor (Bytes.get_uint8 b (off + 1) lsl 16)
  lor (Bytes.get_uint8 b (off + 2) lsl 8)
  lor Bytes.get_uint8 b (off + 3)

let encode_data ~seq payload =
  if seq < 0 || seq > 0x3FFFFFFF then invalid_arg "Wire.encode_data: seq";
  let b = Bytes.create (data_header_size + Bytes.length payload) in
  Bytes.set_uint8 b 0 data_magic;
  Bytes.set_uint8 b 1 0;
  put_u32 b 2 seq;
  Bytes.set_uint8 b 6 0;
  Bytes.set_uint8 b 7 0;
  Bytes.blit payload 0 b data_header_size (Bytes.length payload);
  b

let decode_data b =
  if Bytes.length b < data_header_size then Error "data pdu too short"
  else if Bytes.get_uint8 b 0 <> data_magic then Error "bad data magic"
  else
    let seq = get_u32 b 2 in
    let payload =
      Bytes.sub b data_header_size (Bytes.length b - data_header_size)
    in
    Ok (seq, payload)

(* The ack echoes the path entropy (the index of the path the
   acknowledged PDU arrived on) in byte 10; a single-path connection
   writes zero there. *)
let encode_ack_mp ~ack ~sack ~ece ~entropy =
  if entropy < 0 || entropy > 0xff then
    invalid_arg "Wire.encode_ack_mp: entropy";
  if ack < 0 || ack > 0x3FFFFFFF then invalid_arg "Wire.encode_ack_mp: ack";
  let b = Bytes.create ack_size in
  Bytes.set_uint8 b 0 ack_magic;
  Bytes.set_uint8 b 1 (if ece then flag_ece else 0);
  put_u32 b 2 ack;
  put_u32 b 6 (sack land 0xFFFFFFFF);
  Bytes.set_uint8 b 10 entropy;
  Bytes.set_uint8 b 11 0;
  b

let decode_ack_mp b =
  if Bytes.length b <> ack_size then Error "ack pdu wrong size"
  else if Bytes.get_uint8 b 0 <> ack_magic then Error "bad ack magic"
  else
    let ece = Bytes.get_uint8 b 1 land flag_ece <> 0 in
    Ok (get_u32 b 2, get_u32 b 6, ece, Bytes.get_uint8 b 10)
