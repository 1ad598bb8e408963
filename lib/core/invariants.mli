(** Whole-path sanity checks for fault-injection runs.

    Each check returns human-readable violation sentences (empty = clean)
    and performs no simulated work, so they can run at any instant. The
    buffer-conservation equation, however, only balances at quiescence:
    every circulating receive buffer must then be in exactly one of five
    places — the driver's idle pool, delivered upstream and not yet
    recycled, queued as a free descriptor, posted to the receive queue,
    or held on the board (per-VC staging or preallocated fbuf lists).
    A shortfall is a leak; an excess is double-accounting. *)

val balance :
  what:string -> total:int -> parts:(string * int) list -> string list
(** Generic conservation equation: the named [parts] must sum to [total].
    Returns the single violation sentence (naming every part and the
    leak) or []. Shared by {!check}'s buffer conservation and the
    [Osiris_check] scenario harnesses, so explorer counterexamples read
    like fault-soak reports. *)

val check :
  ?quiescent:bool ->
  board:Osiris_board.Board.t ->
  driver:Driver.t ->
  unit ->
  string list
(** The descriptor-queue structural checks (pointer ranges, occupancy
    arithmetic, shadow-pointer safety) on the channel's three queues,
    the buffer-conservation equation above (only meaningful at
    quiescence, and when [driver]'s pool is the only one circulating
    through [board]), and no partial reassembly older than the board's
    [reassembly_timeout]. [quiescent] additionally demands that no
    reassembly remain in progress. *)

val assert_clean :
  ?quiescent:bool ->
  board:Osiris_board.Board.t ->
  driver:Driver.t ->
  unit ->
  unit
(** [failwith] with every violation listed, for test use. *)
