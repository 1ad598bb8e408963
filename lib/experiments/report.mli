(** Result containers and plain-text rendering for the experiment suite.

    Every paper table or figure is regenerated as one of these values; the
    bench harness prints them in a stable format that EXPERIMENTS.md quotes
    next to the paper's numbers. *)

type series = { label : string; points : (int * float) list }
(** One curve: (x, y) points, x typically a message size in bytes. *)

type figure = {
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  paper_note : string;  (** what the paper reports, for eyeball comparison *)
}

type table = {
  t_title : string;
  header : string list;
  rows : string list list;
  t_paper_note : string;
}

val print_figure : figure -> unit
val print_table : table -> unit

(** {2 Machine-readable rendering} *)

val table_json : table -> Osiris_obs.Json.t
(** [{kind:"table"; title; header; rows; paper_note}] — every datum the
    textual rendering prints. *)

val figure_json : figure -> Osiris_obs.Json.t
(** [{kind:"figure"; title; xlabel; ylabel; series; paper_note}], each
    series as [{label; points:[{x;y}]}]. *)

val bench_json :
  mode:string ->
  experiments:(string * string * Osiris_obs.Json.t) list ->
  Osiris_obs.Json.t
(** The BENCH.json document: its schema tag (["osiris-bench/9"], bumped
    whenever the document's keys or an experiment's series set or
    semantics change), the run [mode], every experiment as
    [(id, description, result_json)], and a full {!Osiris_obs.Metrics}
    snapshot taken at call time. Every value in it is simulated, so two
    runs of one build write the same document. *)

val mbps : bytes_count:int -> ns:int -> float
(** Rate of [bytes_count] bytes over [ns] simulated nanoseconds, in Mb/s. *)

val sizes_1k_to_256k : int list
(** The x-axis of figures 2-4: 1,2,4,...,256 KB. *)
