(* Process-wide metrics registry.

   Every measurable quantity in the simulator — PIO words per queue
   operation, interrupts per PDU, cache misses, DMA transactions — is held
   in a typed handle registered here under a hierarchical dotted name
   (e.g. "board.tx.dma_words"). Components create handles at construction
   time and bump them on the hot path (one mutable-field update, exactly
   what the old ad-hoc records cost); reporting code takes a [snapshot]
   or [to_json] of everything at once.

   Several instances of a component may register under the same name (a
   bench run builds many hosts); a snapshot aggregates them: counters sum,
   distributions and histograms merge. A handle holds its own value and
   never its component: the registry keeps every handle registered (until
   [reset]) but no host. *)

module Stats = Osiris_util.Stats

type counter = { mutable c : int }

type handle =
  | Counter of counter
  | Dist of Stats.t
  | Hist of Stats.Histogram.h

(* Most recent registration first. *)
let table : (string, handle list ref) Hashtbl.t = Hashtbl.create 64

let register name h =
  match Hashtbl.find_opt table name with
  | Some l -> l := h :: !l
  | None -> Hashtbl.replace table name (ref [ h ])

let counter name =
  let c = { c = 0 } in
  register name (Counter c);
  c

let add c n = c.c <- c.c + n
let incr c = add c 1
let counter_value c = c.c

let dist name =
  let s = Stats.create () in
  register name (Dist s);
  s

let histogram name ~lo ~hi ~buckets =
  let h = Stats.Histogram.create ~lo ~hi ~buckets in
  register name (Hist h);
  h

let reset () = Hashtbl.reset table

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

type dist_value = {
  d_n : int;
  d_mean : float;
  d_stddev : float;
  d_min : float;
  d_max : float;
  d_sum : float;
}

type hist_value = { h_n : int; h_p50 : float; h_p90 : float; h_p99 : float }

type value =
  | V_int of int
  | V_dist of dist_value
  | V_hist of hist_value

let merge_dists (ss : Stats.t list) =
  let m = Stats.merge ss in
  {
    d_n = Stats.count m;
    d_mean = Stats.mean m;
    d_stddev = Stats.stddev m;
    d_min = Stats.min m;
    d_max = Stats.max m;
    d_sum = Stats.sum m;
  }

let merge_hists (hs : Stats.Histogram.h list) =
  match hs with
  | [] -> { h_n = 0; h_p50 = nan; h_p90 = nan; h_p99 = nan }
  | _ ->
      let open Stats.Histogram in
      let merged = merge hs in
      {
        h_n = count merged;
        h_p50 = percentile merged 50.0;
        h_p90 = percentile merged 90.0;
        h_p99 = percentile merged 99.0;
      }

(* Aggregate every handle registered under one name. Mixed kinds never
   happen in practice; if they do, the most recent registration wins. *)
let aggregate (handles : handle list) =
  match handles with
  | [] -> V_int 0
  | Counter _ :: _ ->
      V_int
        (List.fold_left
           (fun acc h -> match h with Counter c -> acc + c.c | _ -> acc)
           0 handles)
  | Dist _ :: _ ->
      V_dist
        (merge_dists
           (List.filter_map
              (function Dist s -> Some s | _ -> None)
              handles))
  | Hist _ :: _ ->
      V_hist
        (merge_hists
           (List.filter_map
              (function Hist h -> Some h | _ -> None)
              handles))

let snapshot () =
  Hashtbl.fold (fun name l acc -> (name, aggregate !l) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name =
  match Hashtbl.find_opt table name with
  | None -> None
  | Some l -> Some (aggregate !l)

let value_json = function
  | V_int i -> Json.Int i
  | V_dist d ->
      Json.Assoc
        [
          ("n", Json.Int d.d_n);
          ("mean", Json.Float d.d_mean);
          ("stddev", Json.Float d.d_stddev);
          ("min", Json.Float d.d_min);
          ("max", Json.Float d.d_max);
          ("sum", Json.Float d.d_sum);
        ]
  | V_hist h ->
      Json.Assoc
        [
          ("n", Json.Int h.h_n);
          ("p50", Json.Float h.h_p50);
          ("p90", Json.Float h.h_p90);
          ("p99", Json.Float h.h_p99);
        ]

let to_json () =
  Json.Assoc (List.map (fun (name, v) -> (name, value_json v)) (snapshot ()))
