open Osiris_sim
module Cpu = Osiris_os.Cpu
module Vspace = Osiris_mem.Vspace

(* The paper's 16 cached paths, each with a pool of four 16 KB
   buffers. *)
let max_cached_paths = 16
let bufs_per_path = 4
let buf_size = 16 * 1024

(* Mach VM costs: a hand-off per domain crossing of an already-mapped
   fbuf, a page mapped into or unmapped from one domain, and a fresh
   uncached fbuf allocated and cleared. *)
let cached_transfer = Time.us 20
let remap_per_page = Time.us 60
let unmap_per_page = Time.us 30
let alloc_cost = Time.us 100

type fbuf = { vaddr : int; path : int option }

type pool = { path : int; bufs : int Queue.t; mutable last_use : int }

type stats = {
  mutable cached_gets : int;
  mutable uncached_gets : int;
  mutable evictions : int;
  mutable transfers : int;
}

type t = {
  cpu : Cpu.t;
  vs : Vspace.t;
  pools : (int, pool) Hashtbl.t;
  mutable clock : int; (* LRU tick *)
  stats : stats;
}

let create cpu vs =
  {
    cpu;
    vs;
    pools = Hashtbl.create max_cached_paths;
    clock = 0;
    stats =
      { cached_gets = 0; uncached_gets = 0; evictions = 0; transfers = 0 };
  }

let vaddr (f : fbuf) = f.vaddr
let is_cached (f : fbuf) = f.path <> None

let pages_per_buf t =
  (buf_size + Vspace.page_size t.vs - 1) / Vspace.page_size t.vs

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ p acc ->
        match acc with
        | None -> Some p
        | Some q -> if p.last_use < q.last_use then Some p else Some q)
      t.pools None
  in
  match victim with
  | None -> ()
  | Some p ->
      Queue.iter (fun v -> Vspace.free t.vs v) p.bufs;
      Hashtbl.remove t.pools p.path;
      t.stats.evictions <- t.stats.evictions + 1

(* Build (or refresh) the cached pool for a path. Creating a pool is the
   moment its pages get mapped into every domain of the path; that cost is
   paid once and amortized, so we charge it as one batch of remaps. *)
let ensure_pool t ~path =
  match Hashtbl.find_opt t.pools path with
  | Some p ->
      p.last_use <- tick t;
      Some p
  | None ->
      if Hashtbl.length t.pools >= max_cached_paths then evict_lru t;
      let bufs = Queue.create () in
      for _ = 1 to bufs_per_path do
        Queue.add (Vspace.alloc t.vs ~len:buf_size) bufs
      done;
      Cpu.consume t.cpu (bufs_per_path * pages_per_buf t * remap_per_page);
      let p = { path; bufs; last_use = tick t } in
      Hashtbl.replace t.pools path p;
      Some p

let get t ~path =
  match ensure_pool t ~path with
  | Some p when not (Queue.is_empty p.bufs) ->
      t.stats.cached_gets <- t.stats.cached_gets + 1;
      { vaddr = Queue.take p.bufs; path = Some path }
  | _ ->
      (* Pool exhausted (or uncreatable): fall back to an uncached fbuf. *)
      t.stats.uncached_gets <- t.stats.uncached_gets + 1;
      Cpu.consume t.cpu alloc_cost;
      { vaddr = Vspace.alloc t.vs ~len:buf_size; path = None }

let transfer t (f : fbuf) ~domains =
  t.stats.transfers <- t.stats.transfers + 1;
  let eng = Cpu.engine t.cpu in
  let started = Engine.now eng in
  (match f.path with
  | Some _ -> Cpu.consume t.cpu (domains * cached_transfer)
  | None -> Cpu.consume t.cpu (domains * pages_per_buf t * remap_per_page));
  Engine.now eng - started

let release t (f : fbuf) =
  match f.path with
  | Some path -> (
      match Hashtbl.find_opt t.pools path with
      | Some p -> Queue.add f.vaddr p.bufs
      | None -> Vspace.free t.vs f.vaddr (* pool was evicted meanwhile *))
  | None ->
      Cpu.consume t.cpu (pages_per_buf t * unmap_per_page);
      Vspace.free t.vs f.vaddr

let stats t = t.stats

let cached_paths t =
  Hashtbl.fold (fun path p acc -> (path, p.last_use) :: acc) t.pools []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map fst
