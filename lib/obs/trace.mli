(** Structured trace subsystem.

    Events are typed records carrying a simulation timestamp (integer
    nanoseconds — the emitting site supplies it, so pure modules can
    trace too), a category and a rendered message. Emitted events land in
    a bounded in-memory ring buffer and flow to the active sinks:

    - a stderr pretty-printer, gated per category by [OSIRIS_TRACE]
      (comma-separated category names, or ["all"]) or {!enable};
    - a JSONL file (one JSON object per line) opened from
      [OSIRIS_TRACE_JSON=<path>] or {!set_json_path}, which captures
      {e every} category;
    - arbitrary callbacks installed with {!on_event}.

    Tracing is off by default, and {!enabled} is one load: every
    configuration change recomputes a per-category flag. The
    environment is consulted once, when the module is initialised, so
    explicit configuration always overrides it and tests cannot race
    the env latch; {!reset_for_testing} restores a clean,
    env-independent state. *)

type category =
  | Board_tx  (** transmit processor: chain loads, completions *)
  | Board_rx  (** receive processor: reassembly outcomes, drops *)
  | Driver  (** host channel drivers *)
  | Protocol  (** IP/UDP events *)
  | Link  (** striping, skew, loss *)
  | Fault  (** injected faults and the recovery they trigger *)

val category_name : category -> string
val all : category list

type event = {
  seq : int;  (** 1-based emission index since start/reset *)
  t_ns : int;  (** simulated time of the emitting site *)
  cat : category;
  msg : string;
}

val enable : category -> unit
val disable : category -> unit

val enabled : category -> bool
(** Guard for call sites that would otherwise build strings: true when
    any sink would observe an event of this category. One load, kept
    current by {!enable}, {!disable}, {!set_json_path}, {!on_event},
    {!reset_for_testing} and the environment. *)

val emit : category -> now:int -> string -> unit
(** Emit one event (no trailing newline needed in [msg]). *)

val emitf : category -> now:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant; the format is only evaluated when enabled. *)

(** {2 Sinks} *)

val set_json_path : string option -> unit
(** Open (or close, with [None]) the JSONL sink. Replaces any previously
    open JSONL file. *)

val on_event : (event -> unit) -> unit
(** Install a callback sink receiving every emitted event. Removed only
    by {!reset_for_testing}. *)

(** {2 Inspection} *)

val recent : unit -> event list
(** The ring buffer's contents, oldest first (at most the last 1024
    events). *)

val events_emitted : unit -> int

(** {2 Lifecycle} *)

val reset_for_testing : unit -> unit
(** Disable every category, close the JSONL sink, drop callback sinks and
    the ring buffer, and mark the environment as already consulted so it
    cannot resurface mid-test. *)
