(** Protection domains.

    The host OS is microkernel-shaped (Mach 3.0 with the x-kernel): device
    driver, protocol stacks and applications may live in different
    protection domains, and network data may have to cross several domain
    boundaries on its way to the application — the problem fbufs and ADCs
    attack. Crossing into a domain (IPC / scheduling) has a cost set by
    the machine profile. A domain here is only a name: the components
    that run in it are handed their address space directly. *)

type t

val create : name:string -> t

val name : t -> string
