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

    The allocator keeps preallocated cached pools of four 16 KB buffers
    for the 16 most recently used paths (the paper's figure), evicting the
    least-recently-used path's pool when a new path appears. Early
    demultiplexing on the adaptor is what makes this work: the board learns
    (VCI → path) and can place incoming data in a buffer that is already
    mapped end-to-end.

    Its Mach VM costs are calibrated so cached and uncached transfers
    differ by roughly an order of magnitude for a 16 KB buffer, as the
    paper reports: 20 µs to hand an already-mapped fbuf across one domain
    boundary; 60 µs to map and 30 µs to unmap one page in one domain; and
    100 µs to allocate and clear a fresh uncached fbuf. *)

type t
type fbuf

val create : Osiris_os.Cpu.t -> Osiris_mem.Vspace.t -> t

val get : t -> path:int -> fbuf
(** Take a buffer for the given path: from its cached pool when the path is
    hot and the pool non-empty, else an uncached buffer (paying the
    allocation cost). Using a path refreshes its LRU position and may evict
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
