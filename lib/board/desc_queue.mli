(** The lock-free single-reader/single-writer descriptor queue in dual-port
    memory (paper §2.1.1), with cost-accurate access accounting.

    The queue is an array of descriptors plus a head pointer (modified only
    by the writer) and a tail pointer (modified only by the reader):

    - [head = tail] — queue empty;
    - [(head + 1) mod size = tail] — queue full.

    Only 32-bit loads and stores of the dual-port memory are atomic, and the
    protocol needs nothing more. Host accesses cross the TURBOchannel and
    are charged as programmed I/O on the bus model; board accesses are local
    i960 work and are charged as i960 time. The host additionally keeps
    {e shadow copies} of the pointers it does not own, refreshing them with
    a real (expensive) read only when the shadow is inconclusive — the
    "minimize the number of load and store operations" discipline.

    The [Spin_lock] mode implements the alternative the paper rejected: a
    test-and-set register serializes every queue operation, both sides read
    both pointers afresh under the lock, and lock contention delays whoever
    comes second. It exists for the ablation benchmark. *)

type locking = Lock_free | Spin_lock

type direction =
  | Host_to_board  (** transmit queue, free-buffer queue *)
  | Board_to_host  (** receive queue *)

(** How queue operations pay for their memory accesses. *)
type hooks = {
  host_pio_read : int -> unit;  (** host reads n dual-port words (blocking) *)
  host_pio_write : int -> unit;  (** host writes n dual-port words *)
  board_access : int -> Osiris_sim.Time.t;
      (** the time the board takes to touch n dual-port words, which the
          board's operation sleeps for; 0 means no sleep at all *)
}

val free_hooks : hooks
(** No-cost hooks, for unit tests of the queue discipline itself: no
    host transaction, and board accesses that take no time. *)

type t

val create :
  Osiris_sim.Engine.t -> ?metrics_prefix:string -> size:int ->
  direction:direction -> locking:locking -> hooks:hooks -> unit -> t
(** [size] is the descriptor capacity ([size] slots, of which [size - 1] are
    usable, as with any head/tail ring). [metrics_prefix] names this queue's
    access counters in the {!Osiris_obs.Metrics} registry (e.g.
    ["board.txq"] registers ["board.txq.host_pio_reads"], ...); defaults to
    ["queue"]. *)

val size : t -> int

val count : t -> int
(** Occupancy, read without cost (simulation observability). *)

val total_enqueued : t -> int
(** Cumulative successful enqueues over the queue's lifetime. *)

val total_dequeued : t -> int
(** Cumulative dequeues/advances. The host uses this to detect transmit
    completion by tail-pointer advance instead of interrupts (§2.1.2). *)

val is_empty : t -> bool
val is_full : t -> bool

(** {2 Writer/reader operations}

    Host operations are only legal on the side the direction gives the host,
    and likewise for the board; violations raise [Invalid_argument]. Host
    operations may block (PIO transactions, lock acquisition) and must
    run in a fiber ({!Osiris_sim.Process}).

    The board's processors are callback agents, so the board side exists
    only in callback form: [board_*_then q a ... k] runs the operation
    as agent [a] and passes its result to [k]. It does its work in the
    order a blocking operation would: the slots and pointers change
    first, then [a] sleeps for the dual-port access
    ({!Osiris_sim.Process.sleep_then}), then the enqueue hook and the
    broadcasts run, then [k]. Under [Spin_lock] the board touches the
    lock word, acquires it ({!Osiris_sim.Resource.acquire_then}), runs
    the operation, touches it again and releases it. With {!free_hooks}
    and no contention, [k] runs before the call returns. *)

val host_enqueue : t -> Desc.t -> bool
(** [Host_to_board] writer. [false] when full (after refreshing the shadow
    tail). *)

val host_dequeue : t -> Desc.t option
(** [Board_to_host] reader. [None] when empty (after refreshing the shadow
    head). *)

val board_enqueue_then :
  t -> Osiris_sim.Process.agent -> Desc.t -> (bool -> unit) -> unit
(** [Board_to_host] writer: [k false] when full. *)

val board_dequeue_then :
  t -> Osiris_sim.Process.agent -> (Desc.t option -> unit) -> unit
(** [Host_to_board] reader: [k None] when empty. *)

val board_peek_then :
  t -> Osiris_sim.Process.agent -> int -> (Desc.t option -> unit) -> unit
(** [board_peek_then q a i k]: read the descriptor [i] entries past the
    tail without consuming ([Host_to_board] side only); [k None], with no
    access, when fewer are queued. The slot is read when the access is
    issued, before its sleep. Used by the transmit processor to read a
    whole PDU chain before advancing the tail. *)

val board_advance_then :
  t -> Osiris_sim.Process.agent -> int -> (unit -> unit) -> unit
(** Consume [n] entries previously examined with {!board_peek_then}. *)

(** {2 Transmit-full protocol (paper §2.1.2)} *)

val host_probe_full : t -> bool
(** Accounted host-side fullness probe for a [Host_to_board] queue: same
    shadow-pointer discipline (and the same PIO charges) as a failing
    {!host_enqueue}, without attempting the enqueue. The transmit-stall
    path uses this so its re-checks appear in the PIO accounting. *)

val host_set_waiting : t -> unit
(** Host found the queue full and suspends transmission; one PIO write. *)

val board_test_waiting_then :
  t -> Osiris_sim.Process.agent -> (bool -> unit) -> unit
(** Board-side check-and-clear, after the access's sleep: [k true] when
    the host had set the waiting flag and the queue has drained to half
    empty — time to interrupt. *)

(** {2 Events} *)

val set_on_enqueue : t -> (unit -> unit) -> unit
(** Install a callback invoked synchronously inside every successful
    enqueue. The board uses this to count transmit kicks race-free (a
    signal alone can fire while the transmit processor is mid-scan and
    be lost). *)

val dequeued : t -> Osiris_sim.Signal.t
(** Broadcast after every dequeue / advance. *)

(** {2 Accounting} *)

type access_stats = {
  host_reads : int;  (** dual-port words the host read *)
  host_writes : int;
  board_words : int;
  shadow_hits : int;  (** pointer reads avoided by the shadow copy *)
}

val access_stats : t -> access_stats
(** Snapshot of the queue's access counters (also visible in the metrics
    registry under the queue's [metrics_prefix]). *)

(** {2 Invariant checking}

    Cost-free inspection for the fault-recovery invariant checker
    ([Osiris_core.Invariants]); neither function models dual-port
    accesses. *)

val contents : t -> Desc.t list
(** The descriptors currently queued, tail (oldest) first. *)

val check_invariants : ?name:string -> t -> string list
(** Structural consistency: pointers in range, occupancy matching the
    enqueue/dequeue totals, slots populated exactly on [tail, head), and
    shadow pointers stale in the safe direction only. Returns violation
    descriptions prefixed with [name]; empty = consistent. *)

(** {2 Checker-validation seams}

    Seeded discipline mutations used only to validate the
    [Osiris_check] schedule explorer: each one breaks the
    single-writer / stale-but-safe protocol in a way that is invisible
    to straight-line (FIFO-schedule, check-at-quiescence) tests but is
    caught by invariant checks at explored interleaving points. They
    must never be enabled outside checker tests. *)

type test_mutation =
  | No_mutation
  | Torn_tail_publish
      (** [board_dequeue_then] publishes the advanced tail pointer first and
          clears the slot (and counts the dequeue) in a separate
          same-instant engine event — a non-atomic two-word update. *)
  | Eager_shadow_tail
      (** The host's full-check shadow refresh stores [tail + 1] — an
          optimistic read torn against an in-flight board advance,
          breaking staleness in the unsafe direction. *)

val set_test_mutation : t -> test_mutation -> unit
