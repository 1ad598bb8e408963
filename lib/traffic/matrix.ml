(* Connection matrices: who talks to whom, how much, and when.

   A matrix is just a start-time-ordered flow list; the generator makes
   a single many-flow pair for demux stress, drawing sizes from a {!Cdf}
   and start times uniformly over a window, all from an explicit Rng so
   runs reproduce. Experiments map each flow onto a VC via
   [Network.open_vc]. *)

open Osiris_util
open Osiris_sim

type flow = { f_src : int; f_dst : int; f_bytes : int; f_start : Time.t }

let by_start flows =
  List.stable_sort (fun a b -> compare a.f_start b.f_start) flows

let total_bytes flows = List.fold_left (fun a f -> a + f.f_bytes) 0 flows

let start_in rng window =
  if window <= 0 then Time.zero else Rng.int rng window

let flow rng cdf ~window ~src ~dst =
  { f_src = src; f_dst = dst; f_bytes = Cdf.sample cdf rng; f_start = start_in rng window }

(* The connection-dense demux workload: [flows] flows between one pair
   of hosts, each destined for its own VC at the receiver. *)
let pair_burst rng ~src ~dst ~flows ~cdf ~window =
  if src = dst then invalid_arg "Matrix.pair_burst: src = dst";
  if flows < 0 then invalid_arg "Matrix.pair_burst: negative flow count";
  by_start (List.init flows (fun _ -> flow rng cdf ~window ~src ~dst))
