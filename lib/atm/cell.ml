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

let corrupt t ~byte =
  if byte < 0 || byte >= data_size then invalid_arg "Cell.corrupt: bad index";
  let data = Bytes.copy t.data in
  Bytes.set data byte (Char.chr (Char.code (Bytes.get data byte) lxor 0x5a));
  { t with data }
