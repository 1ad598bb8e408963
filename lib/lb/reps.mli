(** REPS-style per-connection adaptive path selection: recycled entropy
    packet spraying.

    The balancer never learns the fabric — it learns which {e entropy}
    (path indices, in this fabric's VCI-per-path encoding) recently
    carried a PDU to a clean acknowledgement, and re-uses exactly that.
    Every clean ack recycles its path index into a small FIFO; every
    transmission prefers recycled entropy over anything else. A path the
    fabric is congesting (ECE echo) or losing (retransmission, timeout)
    simply stops producing clean acks, so its entropy drains out of the
    FIFO within one round-trip and the spray migrates to the surviving
    paths — rerouting without any explicit failure signal.

    Two modes, as in the REPS design: {e explore} draws fresh entropy
    (a per-connection LCG over all [npaths]) whenever no recycled
    entropy is buffered, discovering path quality; {e frozen} — entered
    after enough clean acks — stops exploring and falls back to the
    cached-path bitmap instead, pinning the spray to paths known clean.
    An ECE echo evicts just that path from the cached set (the others
    are still good); only a retransmission timeout — every in-flight
    ack in doubt — flushes everything and drops back to explore.

    The whole per-connection state is a few bytes — {!state_bytes}, at
    most 25 with the default FIFO — which is the point: a host can run
    one instance per connection at OSIRIS scale without a flow table.
    (Observability counters in {!stats} are not forwarding state and are
    not counted, the same accounting the transport applies to its own
    stats records.) *)

type t

type stats = {
  mutable picks : int;  (** total path decisions *)
  mutable recycled : int;  (** picks served from the entropy FIFO *)
  mutable cached_picks : int;  (** picks served from the frozen bitmap *)
  mutable fresh : int;  (** picks served by fresh (explore) entropy *)
  mutable acks_clean : int;
  mutable acks_ece : int;
  mutable timeouts : int;
  mutable purged : int;  (** FIFO entries discarded by {!on_loss} *)
}

val create : ?fifo:int -> ?seed:int -> npaths:int -> unit -> t
(** A balancer over paths [0 .. npaths-1] ([npaths] in [1, 256]).
    [fifo] (default 16, max 256) bounds the entropy FIFO — and with it
    both the state size and how much stale entropy can point at a path
    that just died. [seed] scrambles the explore LCG so parallel
    connections don't sweep the path space in lockstep. *)

val state_bytes : t -> int
(** Size of the forwarding state in bytes: the FIFO ring plus head,
    tail, length, the 16-bit cached-path bitmap, the mode byte, the
    16-bit explore cursor and the freeze countdown. 25 with the default
    FIFO; the test suite pins [state_bytes <= 25]. *)

val pick : t -> int
(** Choose the path for the next PDU: recycled entropy when the FIFO
    holds any, else the cached bitmap when frozen, else fresh explore
    entropy. *)

val on_ack : t -> path:int -> ece:bool -> unit
(** Feed one acknowledgement's recycled entropy. Clean ([ece = false]):
    the path index re-enters the FIFO (displacing the oldest entry when
    full), its cached bit is set, and the freeze countdown steps toward
    frozen mode. Marked ([ece = true]): nothing is recycled and the
    path's cached bit is cleared — the balancer stays frozen on the
    remaining cached paths (falling back to fresh entropy only if marks
    evict them all). Path indices outside [0, npaths) (a garbled
    entropy byte) are ignored. *)

val on_loss : t -> path:int -> unit
(** A segment sent on [path] needed a retransmission: purge that path's
    entries from the FIFO and clear its cached bit, so the retransmission
    and everything behind it steer around it immediately. *)

val on_timeout : t -> unit
(** Retransmission timeout: every in-flight ack is in doubt, so flush
    the FIFO, clear the cached bitmap and re-enter explore. *)

val frozen : t -> bool
val fifo_len : t -> int
val cached_bitmap : t -> int
val stats : t -> stats

val invariants : t -> string list
(** Structural invariants, checkable at any instant: FIFO indices in
    range, length consistent with head/tail, every buffered entropy and
    every cached bit a valid path, pick conservation
    ([picks = recycled + cached_picks + fresh]). Empty when healthy. *)
