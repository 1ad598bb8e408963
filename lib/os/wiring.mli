(** Page wiring service (paper §2.4).

    Before a buffer address is handed to the adaptor for DMA, its pages must
    be wired (pinned). Two implementations are modelled:

    - [Mach_full]: the stock Mach service, which also protects the page
      tables needed to translate the page — much stronger than DMA needs,
      and surprisingly expensive.
    - [Low_level]: the pmap-level operation the authors switched to, which
      only prevents replacement of the page itself.

    Both consume host CPU time per call and per page; the cost constants are
    per-machine calibration inputs. *)

type policy = Mach_full | Low_level

type costs = {
  mach_fixed : Osiris_sim.Time.t;
  mach_per_page : Osiris_sim.Time.t;
  low_fixed : Osiris_sim.Time.t;
  low_per_page : Osiris_sim.Time.t;
}

type t

val create : Cpu.t -> costs -> policy -> t

val set_policy : t -> policy -> unit

val wire : t -> Osiris_mem.Vspace.t -> vaddr:int -> len:int -> unit
(** Consume the policy's CPU cost and wire the region's pages. *)

val unwire : t -> Osiris_mem.Vspace.t -> vaddr:int -> len:int -> unit
(** Consume half the wire cost and unwire. *)

val cost_of : t -> pages:int -> Osiris_sim.Time.t
(** Closed-form cost of wiring [pages] pages under the current policy. *)
