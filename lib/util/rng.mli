(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic element of the simulation (frame allocator scrambling,
    link skew jitter, error injection, workload generators) draws from an
    explicitly seeded [Rng.t], so whole-system runs are reproducible. *)

type t

val create : seed:int -> t
(** A generator seeded with [seed]; equal seeds yield equal streams. *)

val split : t -> t
(** A new generator whose stream is a deterministic function of the parent's
    state; advances the parent. Use to give subsystems independent
    streams. *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. [n] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [float t 1.0 < p]: the same draw and the same
    answer, without boxing the draw. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
