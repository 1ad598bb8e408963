type t = {
  vci : int;
  seq : int;
  eom : bool;
  last_of_pdu : bool;
  marked : bool;
  data : Bytes.t;
}

let wire_size = 53
let payload_size = 48
let aal_overhead = 4
let data_size = payload_size - aal_overhead

let make ~vci ~seq ~eom ~last_of_pdu data =
  if Bytes.length data <> data_size then
    invalid_arg "Cell.make: data must be exactly 44 bytes";
  if vci < 0 || vci > 0xffff then invalid_arg "Cell.make: vci out of range";
  if seq < 0 || seq > 0xffff then invalid_arg "Cell.make: seq out of range";
  { vci; seq; eom; last_of_pdu; marked = false; data }

let header_check b =
  (* XOR of the first four header bytes: a poor man's HEC, enough to catch
     single-byte header corruption in tests. *)
  Char.code (Bytes.get b 0)
  lxor Char.code (Bytes.get b 1)
  lxor Char.code (Bytes.get b 2)
  lxor Char.code (Bytes.get b 3)

let aal_check b off =
  Char.code (Bytes.get b off)
  lxor Char.code (Bytes.get b (off + 1))
  lxor Char.code (Bytes.get b (off + 2))

let serialize t =
  let b = Bytes.create wire_size in
  (* ATM header: vci (2B), PT flags, reserved, check. *)
  Bytes.set b 0 (Char.chr (t.vci lsr 8));
  Bytes.set b 1 (Char.chr (t.vci land 0xff));
  Bytes.set b 2
    (Char.chr
       ((if t.last_of_pdu then 1 else 0) lor if t.marked then 2 else 0));
  Bytes.set b 3 '\000';
  Bytes.set b 4 (Char.chr (header_check b));
  (* AAL header: seq (2B), flags, check. *)
  Bytes.set b 5 (Char.chr (t.seq lsr 8));
  Bytes.set b 6 (Char.chr (t.seq land 0xff));
  Bytes.set b 7 (Char.chr (if t.eom then 1 else 0));
  Bytes.set b 8 (Char.chr (aal_check b 5));
  Bytes.blit t.data 0 b 9 data_size;
  b

let parse b =
  if Bytes.length b <> wire_size then Error "cell: bad wire size"
  else if Char.code (Bytes.get b 4) <> header_check b then
    Error "cell: ATM header check failed"
  else if Char.code (Bytes.get b 8) <> aal_check b 5 then
    Error "cell: AAL header check failed"
  else begin
    let vci = (Char.code (Bytes.get b 0) lsl 8) lor Char.code (Bytes.get b 1) in
    let last_of_pdu = Char.code (Bytes.get b 2) land 1 = 1 in
    let marked = Char.code (Bytes.get b 2) land 2 = 2 in
    let seq = (Char.code (Bytes.get b 5) lsl 8) lor Char.code (Bytes.get b 6) in
    let eom = Char.code (Bytes.get b 7) land 1 = 1 in
    Ok { vci; seq; eom; last_of_pdu; marked; data = Bytes.sub b 9 data_size }
  end

let corrupt t ~byte =
  if byte < 0 || byte >= data_size then invalid_arg "Cell.corrupt: bad index";
  let data = Bytes.copy t.data in
  Bytes.set data byte (Char.chr (Char.code (Bytes.get data byte) lxor 0x5a));
  { t with data }

let pp fmt t =
  Format.fprintf fmt "cell(vci=%d seq=%d%s%s%s)" t.vci t.seq
    (if t.eom then " eom" else "")
    (if t.last_of_pdu then " last" else "")
    (if t.marked then " ce" else "")

let equal a b =
  a.vci = b.vci && a.seq = b.seq && a.eom = b.eom
  && a.last_of_pdu = b.last_of_pdu && a.marked = b.marked
  && Bytes.equal a.data b.data
