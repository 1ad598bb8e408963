open Osiris_sim

type policy = Mach_full | Low_level

type costs = {
  mach_fixed : Time.t;
  mach_per_page : Time.t;
  low_fixed : Time.t;
  low_per_page : Time.t;
}

let default_costs =
  {
    mach_fixed = Time.us 80;
    mach_per_page = Time.us 45;
    low_fixed = Time.us 4;
    low_per_page = Time.us 3;
  }

type t = {
  cpu : Cpu.t;
  costs : costs;
  mutable policy : policy;
  mutable calls : int;
}

let create cpu costs policy = { cpu; costs; policy; calls = 0 }

let set_policy t p = t.policy <- p

let cost_of t ~pages =
  match t.policy with
  | Mach_full -> t.costs.mach_fixed + (pages * t.costs.mach_per_page)
  | Low_level -> t.costs.low_fixed + (pages * t.costs.low_per_page)

let pages_of vs ~vaddr ~len =
  let ps = Osiris_mem.Vspace.page_size vs in
  ((vaddr + len - 1) / ps) - (vaddr / ps) + 1

let wire t vs ~vaddr ~len =
  t.calls <- t.calls + 1;
  Cpu.consume t.cpu (cost_of t ~pages:(pages_of vs ~vaddr ~len));
  Osiris_mem.Vspace.wire vs ~vaddr ~len

let unwire t vs ~vaddr ~len =
  t.calls <- t.calls + 1;
  Cpu.consume t.cpu (cost_of t ~pages:(pages_of vs ~vaddr ~len) / 2);
  Osiris_mem.Vspace.unwire vs ~vaddr ~len

let calls t = t.calls
