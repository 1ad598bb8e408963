(** Application device channels (paper §3.2).

    An ADC gives an application restricted but direct access to the OSIRIS
    adaptor: the OS maps one transmit queue page and one free/receive queue
    page pair into the application's address space, assigns it a set of
    VCIs, a transmit priority, and a list of authorized physical pages, and
    then gets out of the way. Data-path operations (queueing buffers,
    draining the receive queue) cross no protection boundary; only
    interrupts still arrive via the kernel, whose handler directly signals
    the ADC channel driver's thread.

    The channel driver linked into the application "performs essentially
    the same functions as the in-kernel OSIRIS device driver", so this
    module instantiates {!Osiris_core.Driver} in the application's domain
    with the kernel-crossing cost set to zero, and registers the channel's
    interrupt lines with the host. Protection is enforced by the board:
    descriptors naming unauthorized pages raise a violation interrupt
    instead of being transmitted. *)

type t

val open_ :
  Osiris_core.Host.t ->
  ?priority:int ->
  ?cpu_priority:int ->
  unit ->
  t
(** Open an ADC on the host: create the application's address space, take
    one of the board's channel pages, set up its channel driver (with its
    own receive-buffer pool, authorized to the board), and wire the
    channel's interrupts. *)

val vspace : t -> Osiris_mem.Vspace.t
val channel : t -> Osiris_board.Board.channel
val demux : t -> Osiris_xkernel.Demux.t

val send : t -> vci:int -> Osiris_xkernel.Msg.t -> unit
(** Transmit directly from user space — no kernel crossing. The message's
    pages must have been authorized (see {!alloc_msg}), or the board raises a
    protection violation and drops the PDU. *)

val alloc_msg : t -> len:int -> unit -> Osiris_xkernel.Msg.t
(** Allocate an application buffer in the ADC's address space and authorize
    its pages for transmission. *)

val send_unauthorized : t -> vci:int -> len:int -> unit
(** Deliberately queue a descriptor naming pages outside the authorized
    list — the protection-violation test. *)
