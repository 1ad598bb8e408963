open Osiris_sim
module Cpu = Osiris_os.Cpu
module Cache = Osiris_cache.Data_cache
module Msg = Osiris_xkernel.Msg
module Pbuf = Osiris_mem.Pbuf
module Checksum = Osiris_util.Checksum

type costs = {
  ip_output_per_fragment : Time.t;
  ip_input_per_fragment : Time.t;
  udp_output : Time.t;
  udp_input : Time.t;
  checksum_cycles_per_word : int;
}

type t = {
  cpu : Cpu.t;
  cache : Cache.t;
  costs : costs;
  mutable sum_buf : Bytes.t;
}

let create ~cpu ~cache costs = { cpu; cache; costs; sum_buf = Bytes.empty }

let range_pbufs msg ~off ~len = Msg.pbufs (Msg.sub msg ~off ~len)

(* Read a message range through the cache into [dst] from 0, holding the
   CPU for the whole read. *)
let read_into t msg ~off ~len dst =
  Cpu.with_held t.cpu (fun () ->
      let pos = ref 0 in
      List.iter
        (fun (b : Pbuf.t) ->
          Cache.read_into t.cache ~addr:b.Pbuf.addr ~len:b.Pbuf.len ~dst
            ~dst_off:!pos;
          pos := !pos + b.Pbuf.len)
        (range_pbufs msg ~off ~len))

let read_through_cache t msg ~off ~len =
  let out = Bytes.create len in
  read_into t msg ~off ~len out;
  out

(* [sum_buf] is this context's alone. The read suspends at every cache
   line, but it holds the CPU, so no other process of this host can be
   in here; the sum is taken before [consume_cycles] lets them in. *)
let checksum_msg t msg ~off ~len =
  if Bytes.length t.sum_buf < len then
    t.sum_buf <- Bytes.create (Int.max len (2 * Bytes.length t.sum_buf));
  read_into t msg ~off ~len t.sum_buf;
  let sum = Checksum.ones_complement_sum t.sum_buf ~off:0 ~len in
  let words = (len + 3) / 4 in
  Cpu.consume_cycles t.cpu (words * t.costs.checksum_cycles_per_word);
  sum

let invalidate_msg t msg ~off ~len =
  Cpu.with_held t.cpu (fun () ->
      List.iter
        (fun (b : Pbuf.t) ->
          Cache.invalidate t.cache ~addr:b.Pbuf.addr ~len:b.Pbuf.len)
        (range_pbufs msg ~off ~len))
