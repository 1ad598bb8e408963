(* Empirical flow-size distributions, sampled by inverse transform.

   A distribution is a piecewise-linear CDF over flow sizes in bytes:
   points (x_i, p_i) with x strictly increasing, p non-decreasing,
   p_0 = 0 and p_last = 1. [quantile] inverts it by linear
   interpolation inside the bracketing segment, so [sample] is just the
   quantile of a uniform draw — the standard inverse-transform recipe.

   The named distribution is a coarse piecewise-linear approximation of
   the web-search workload measured in production datacenters (DCTCP);
   it is meant to exercise the demux with realistic size dispersion,
   not to reproduce that paper's tail digit-for-digit. *)

open Osiris_util

type t = { xs : float array; ps : float array }

let of_points points =
  let n = List.length points in
  if n < 2 then invalid_arg "Cdf.of_points: need at least two points";
  let xs = Array.make n 0. and ps = Array.make n 0. in
  List.iteri
    (fun i (x, p) ->
      xs.(i) <- x;
      ps.(i) <- p)
    points;
  if ps.(0) <> 0. then invalid_arg "Cdf.of_points: first probability not 0";
  if ps.(n - 1) <> 1. then invalid_arg "Cdf.of_points: last probability not 1";
  if xs.(0) < 0. then invalid_arg "Cdf.of_points: negative flow size";
  for i = 1 to n - 1 do
    if xs.(i) <= xs.(i - 1) then
      invalid_arg "Cdf.of_points: sizes not strictly increasing";
    if ps.(i) < ps.(i - 1) then
      invalid_arg "Cdf.of_points: probabilities decreasing"
  done;
  { xs; ps }

let quantile t u =
  if u <= 0. then t.xs.(0)
  else if u >= 1. then t.xs.(Array.length t.xs - 1)
  else begin
    (* find the first i with ps.(i) >= u; segment (i-1, i) brackets u *)
    let n = Array.length t.ps in
    let i = ref 1 in
    while t.ps.(!i) < u do
      incr i
    done;
    let i = if !i >= n then n - 1 else !i in
    let p0 = t.ps.(i - 1) and p1 = t.ps.(i) in
    let x0 = t.xs.(i - 1) and x1 = t.xs.(i) in
    if p1 = p0 then x1 else x0 +. ((u -. p0) /. (p1 -. p0) *. (x1 -. x0))
  end

let sample t rng =
  let x = quantile t (Rng.float rng 1.0) in
  let b = int_of_float (Float.round x) in
  if b < 1 then 1 else b

let websearch =
  of_points
    [
      (1., 0.0);
      (10_000., 0.15);
      (20_000., 0.20);
      (30_000., 0.30);
      (50_000., 0.40);
      (80_000., 0.53);
      (200_000., 0.60);
      (1_000_000., 0.70);
      (2_000_000., 0.80);
      (5_000_000., 0.90);
      (10_000_000., 0.97);
      (30_000_000., 1.0);
    ]

(* Rescale the size axis so the distribution's shape survives at bench
   scale: demux experiments want thousands of flows per run, not
   multi-megabyte transfers. *)
let scale t ~factor ~min_bytes ~max_bytes =
  if factor <= 0. then invalid_arg "Cdf.scale: factor <= 0";
  if min_bytes < 1 || max_bytes <= min_bytes then
    invalid_arg "Cdf.scale: need 1 <= min_bytes < max_bytes";
  let lo = float_of_int min_bytes and hi = float_of_int max_bytes in
  let n = Array.length t.xs in
  let pts = ref [] and last = ref neg_infinity in
  for i = 0 to n - 1 do
    let x = Float.min hi (Float.max lo (t.xs.(i) *. factor)) in
    (* clamping can collapse consecutive points: keep x strictly rising *)
    let x = if x <= !last then !last +. 1. else x in
    last := x;
    pts := (x, t.ps.(i)) :: !pts
  done;
  of_points (List.rev !pts)
