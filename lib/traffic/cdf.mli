(** Empirical flow-size distributions as piecewise-linear CDFs, sampled
    by inverse-transform: a flow size is the {!quantile} of a uniform
    draw. The named workload ({!websearch}) is a coarse approximation of
    published datacenter measurements, there to give experiments
    realistic size dispersion. *)

open Osiris_util

type t

val of_points : (float * float) list -> t
(** [(size_bytes, cum_prob)] pairs: sizes strictly increasing,
    probabilities non-decreasing from exactly 0 to exactly 1.
    Raises [Invalid_argument] otherwise. *)

val quantile : t -> float -> float
(** Inverse CDF by linear interpolation; monotone in its argument.
    Arguments outside [0,1] clamp to the support's endpoints. *)

val sample : t -> Rng.t -> int
(** One flow size in bytes (at least 1): [quantile] of a uniform draw,
    rounded to the nearest byte. *)

val websearch : t
(** Web-search-like workload (DCTCP-flavored): mostly tens of kilobytes
    with a multi-megabyte tail. *)

val scale : t -> factor:float -> min_bytes:int -> max_bytes:int -> t
(** Rescale the size axis by [factor] and clamp the support into
    [[min_bytes, max_bytes]], keeping it strictly increasing — how the
    demux experiment shrinks datacenter distributions to bench scale. *)
