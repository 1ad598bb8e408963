(** Host interrupt dispatch.

    Fielding an interrupt raised by the OSIRIS board costs the host about
    75 µs on a DECstation 5000/200 under Mach (paper §2.1.2) — comparable to
    a third of the whole UDP/IP service time, which is why the host/board
    protocol works so hard to avoid interrupts. That dispatch cost is
    charged here, at interrupt priority, before the registered handler
    runs.

    Handlers run in process context (they may signal condition variables,
    consume further CPU time, etc.). A line asserted while its handler is
    still pending is coalesced, matching level-triggered behaviour and the
    board's own assert-on-transition discipline. *)

type t

val create : Osiris_sim.Engine.t -> cpu:Cpu.t -> dispatch_cost:Osiris_sim.Time.t -> t

val register : t -> line:int -> name:string -> (unit -> unit) -> unit
(** Install the handler for an interrupt line. At most one handler per
    line. *)

val set_handler : t -> line:int -> (unit -> unit) -> unit
(** Replace a registered line's handler; an interrupt dispatched from
    then on runs the new one. Raises [Invalid_argument] on a line with
    no handler. *)

val assert_line : t -> line:int -> unit
(** Raise the line. Safe from any context. The handler is scheduled
    immediately; duplicate asserts before it runs are merged. *)

val count : t -> int
(** Total interrupts dispatched (after coalescing). *)

val asserted : t -> int
(** Total asserts requested (before coalescing). *)
