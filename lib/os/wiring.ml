open Osiris_sim

type policy = Mach_full | Low_level

type costs = {
  mach_fixed : Time.t;
  mach_per_page : Time.t;
  low_fixed : Time.t;
  low_per_page : Time.t;
}

type t = {
  cpu : Cpu.t;
  costs : costs;
  mutable policy : policy;
}

let create cpu costs policy = { cpu; costs; policy }

let set_policy t p = t.policy <- p

let cost_of t ~pages =
  match t.policy with
  | Mach_full -> t.costs.mach_fixed + (pages * t.costs.mach_per_page)
  | Low_level -> t.costs.low_fixed + (pages * t.costs.low_per_page)

let pages_of vs ~vaddr ~len =
  let ps = Osiris_mem.Vspace.page_size vs in
  ((vaddr + len - 1) / ps) - (vaddr / ps) + 1

let wire t vs ~vaddr ~len =
  Cpu.consume t.cpu (cost_of t ~pages:(pages_of vs ~vaddr ~len));
  Osiris_mem.Vspace.wire vs ~vaddr ~len

let unwire t vs ~vaddr ~len =
  Cpu.consume t.cpu (cost_of t ~pages:(pages_of vs ~vaddr ~len) / 2);
  Osiris_mem.Vspace.unwire vs ~vaddr ~len
