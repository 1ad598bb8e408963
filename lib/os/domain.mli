(** Protection domains.

    The host OS is microkernel-shaped (Mach 3.0 with the x-kernel): device
    driver, protocol stacks and applications may live in different
    protection domains, and network data may have to cross several domain
    boundaries on its way to the application — the problem fbufs and ADCs
    attack. A domain owns a virtual address space; crossing into a domain
    (IPC / scheduling) has a cost set by the machine profile. *)

type kind = Kernel | User

type t

val create :
  name:string -> kind:kind -> Osiris_mem.Vspace.t -> t

val name : t -> string

val equal : t -> t -> bool
