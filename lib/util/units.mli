(** Rendering helpers for rates and sizes, shared by the experiment
    printers. *)

val mbps : bytes_count:int -> seconds:float -> float
(** Megabits per second (decimal mega, as the paper uses). *)
