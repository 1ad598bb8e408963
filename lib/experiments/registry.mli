(** Registry of every reproduced paper result and ablation, keyed by the
    identifiers the bench harness uses. *)

type kind =
  | Table of (unit -> Report.table)
  | Figure of (unit -> Report.figure)

type entry = { id : string; description : string; kind : kind }

val all : entry list
(** Every experiment, in paper order. *)

val quick : entry list
(** The subset cheap enough for a default bench run (everything except the
    full-size figure sweeps). *)

val find : string -> entry option

type result = R_table of Report.table | R_figure of Report.figure

val eval : entry -> result
(** Execute without printing, so one run can feed both the textual report
    and BENCH.json. *)

val print_result : result -> unit
val result_json : result -> Osiris_obs.Json.t
