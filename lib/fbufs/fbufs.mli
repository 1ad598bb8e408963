(** Fast buffers (fbufs): cached cross-domain buffer transfer (paper §3.1).

    An fbuf is a network buffer that must traverse a sequence of protection
    domains (driver → protocol server → application). Two transfer regimes
    exist:

    - {e cached}: the fbuf comes from a pool whose pages are already mapped
      into every domain of its {e path}; transferring it costs only a
      pointer hand-off.
    - {e uncached}: the fbuf's pages must be remapped into each receiving
      domain as the data moves up, and unmapped afterwards, paying VM and
      TLB costs per page per domain.

    The allocator keeps preallocated cached pools for the [max_cached_paths]
    most recently used paths (the paper uses 16), evicting the
    least-recently-used path's pool when a new path appears. Early
    demultiplexing on the adaptor is what makes this work: the board learns
    (VCI → path) and can place incoming data in a buffer that is already
    mapped end-to-end. *)

type costs = {
  cached_transfer : Osiris_sim.Time.t;
      (** hand-off of an already-mapped fbuf, per domain crossing *)
  remap_per_page : Osiris_sim.Time.t;
      (** map one page into one domain (uncached path) *)
  unmap_per_page : Osiris_sim.Time.t;
  alloc_cost : Osiris_sim.Time.t;  (** allocate/clear a fresh uncached fbuf *)
}

val default_costs : costs
(** Mach VM costs calibrated so cached/uncached differ by roughly an order
    of magnitude for a 16 KB buffer, as the paper reports. *)

type t
type fbuf

val create :
  Osiris_os.Cpu.t ->
  Osiris_mem.Vspace.t ->
  costs ->
  max_cached_paths:int ->
  bufs_per_path:int ->
  buf_size:int ->
  t

val get : t -> path:int -> fbuf
(** Take a buffer for the given path: from its cached pool when the path is
    hot and the pool non-empty, else an uncached buffer (paying
    [alloc_cost]). Using a path refreshes its LRU position and may evict
    another path's pool. *)

val vaddr : fbuf -> int
val is_cached : fbuf -> bool

val transfer : t -> fbuf -> domains:int -> Osiris_sim.Time.t
(** Move the fbuf across [domains] protection-domain boundaries, charging
    the appropriate costs on the CPU; returns the simulated time it took
    (for reporting). *)

val release : t -> fbuf -> unit
(** Return the buffer: cached fbufs go back to their path's pool (if it
    still exists); uncached fbufs pay the unmap cost and are freed. *)

type stats = {
  mutable cached_gets : int;
  mutable uncached_gets : int;
  mutable evictions : int;
  mutable transfers : int;
}

val stats : t -> stats

val cached_paths : t -> int list
(** Currently cached paths, most recently used first. *)
