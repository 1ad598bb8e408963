type t = { addr : int; len : int; vci : int; eop : bool; marked : bool }

let words = 2

let v ~addr ~len ?(vci = 0) ?(eop = true) ?(marked = false) () =
  if len < 0 then invalid_arg "Desc.v: negative length";
  { addr; len; vci; eop; marked }

let of_pbuf ?(vci = 0) ?(eop = true) (b : Osiris_mem.Pbuf.t) =
  { addr = b.Osiris_mem.Pbuf.addr; len = b.Osiris_mem.Pbuf.len; vci; eop;
    marked = false }

let rec sum_len chain acc =
  match chain with [] -> acc | d :: rest -> sum_len rest (acc + d.len)

let total_len chain = sum_len chain 0

let chain_of_pbufs ~vci pbufs =
  let n = List.length pbufs in
  List.mapi (fun i b -> of_pbuf ~vci ~eop:(i = n - 1) b) pbufs
