(** Process-wide metrics registry.

    Components register typed handles — counters, streaming
    distributions ({!Osiris_util.Stats.t}) and histograms — under
    hierarchical dotted names like ["board.tx.dma_words"] at construction
    time, and bump them on the hot path (a single mutable-field update).
    Reporting code reads one name with {!find} or everything at once
    with {!to_json}.

    Several instances may register under one name (a bench run builds
    many hosts): snapshots aggregate them — counters sum, distributions
    and histograms merge. A handle holds its own value and never its
    component: the registry keeps every handle registered (until
    {!reset}) but no host. *)

type counter

val counter : string -> counter
(** Register (another) counter under [name], starting at 0. *)

val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

val dist : string -> Osiris_util.Stats.t
(** Register a streaming distribution; feed it with [Stats.add]. *)

val histogram :
  string -> lo:float -> hi:float -> buckets:int -> Osiris_util.Stats.Histogram.h

val reset : unit -> unit
(** Drop every registration (testing). Existing handles keep working but
    are no longer visible to snapshots. *)

(** {2 Snapshots} *)

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

val find : string -> value option

val to_json : unit -> Json.t
(** The whole registry as one JSON object, keys sorted. *)
