(** Simulated time.

    All simulation timestamps and durations are integer nanoseconds, which
    keeps event ordering exact (no floating-point comparison hazards) and is
    fine-grained enough to express single bus cycles (a 25 MHz TURBOchannel
    cycle is 40 ns). *)

type t = int
(** A point in simulated time, or a duration, in nanoseconds. *)

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val s : int -> t
(** [s n] is [n] seconds. *)

val of_float_us : float -> t
(** [of_float_us x] is [x] microseconds, rounded to the nearest ns. *)

val to_float_us : t -> float
(** [to_float_us t] is [t] expressed in microseconds. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns, us, ms, s). *)
