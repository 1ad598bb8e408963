type stats = {
  mutable picks : int;
  mutable recycled : int;
  mutable cached_picks : int;
  mutable fresh : int;
  mutable acks_clean : int;
  mutable acks_ece : int;
  mutable timeouts : int;
  mutable purged : int;
}

(* The forwarding state is the point of the design: one small ring of
   recycled path indices plus a handful of bytes, no per-path table.
   [state_bytes] accounts for exactly these fields. *)
type t = {
  np : int; (* configuration, like a window size: not state *)
  ent : Bytes.t; (* FIFO ring of recycled path indices, 1 B per slot *)
  mutable ent_head : int; (* ring read index (1 B) *)
  mutable ent_tail : int; (* ring write index (1 B) *)
  mutable ent_len : int; (* buffered entries (1 B) *)
  mutable cached : int; (* 16-bit bitmap: paths recently acked clean *)
  mutable frozen : bool; (* mode (1 B): frozen spray vs explore *)
  mutable cursor : int; (* 16-bit explore LCG state *)
  mutable fresh_left : int; (* clean acks until freeze (1 B) *)
  stats : stats;
}

(* Enough clean acks to have heard from every path a couple of times
   before trusting the cached set; capped so it stays one byte. *)
let freeze_after np = Int.min 255 (2 * np)

let create ?(fifo = 16) ?(seed = 0) ~npaths () =
  if npaths < 1 || npaths > 256 then invalid_arg "Reps.create: npaths";
  if fifo < 1 || fifo > 256 then invalid_arg "Reps.create: fifo";
  {
    np = npaths;
    ent = Bytes.make fifo '\000';
    ent_head = 0;
    ent_tail = 0;
    ent_len = 0;
    cached = 0;
    frozen = false;
    cursor = seed land 0xffff;
    fresh_left = freeze_after npaths;
    stats =
      {
        picks = 0;
        recycled = 0;
        cached_picks = 0;
        fresh = 0;
        acks_clean = 0;
        acks_ece = 0;
        timeouts = 0;
        purged = 0;
      };
  }

let frozen t = t.frozen
let fifo_len t = t.ent_len
let cached_bitmap t = t.cached
let stats t = t.stats

let state_bytes t =
  Bytes.length t.ent (* entropy FIFO ring *)
  + 1 (* ent_head *)
  + 1 (* ent_tail *)
  + 1 (* ent_len *)
  + 2 (* cached bitmap *)
  + 1 (* frozen *)
  + 2 (* cursor *)
  + 1 (* fresh_left *)

let cap t = Bytes.length t.ent

let push t path =
  if t.ent_len = cap t then begin
    (* Full: displace the oldest recycled entropy — newest wins, it
       reflects the freshest view of the fabric. *)
    t.ent_head <- (t.ent_head + 1) mod cap t;
    t.ent_len <- t.ent_len - 1
  end;
  Bytes.unsafe_set t.ent t.ent_tail (Char.unsafe_chr path);
  t.ent_tail <- (t.ent_tail + 1) mod cap t;
  t.ent_len <- t.ent_len + 1

let pop t =
  let p = Char.code (Bytes.unsafe_get t.ent t.ent_head) in
  t.ent_head <- (t.ent_head + 1) mod cap t;
  t.ent_len <- t.ent_len - 1;
  p

(* Fresh entropy: a 16-bit LCG (Numerical Recipes' ranqd-style odd
   multiplier) — cheap, stateful in two bytes, and different seeds give
   parallel connections different sweep orders. *)
let fresh_pick t =
  t.cursor <- ((t.cursor * 25173) + 13849) land 0xffff;
  t.cursor mod t.np

(* Next set bit of the cached bitmap at or after the cursor, cycling. *)
let cached_pick t =
  let rec scan i left =
    if left = 0 then fresh_pick t
    else
      let p = (t.cursor + i) mod t.np in
      if t.cached land (1 lsl p) <> 0 then begin
        t.cursor <- (p + 1) mod t.np;
        p
      end
      else scan (i + 1) (left - 1)
  in
  scan 0 t.np

let pick t =
  t.stats.picks <- t.stats.picks + 1;
  if t.ent_len > 0 then begin
    t.stats.recycled <- t.stats.recycled + 1;
    pop t
  end
  else if t.frozen && t.cached <> 0 then begin
    t.stats.cached_picks <- t.stats.cached_picks + 1;
    cached_pick t
  end
  else begin
    t.stats.fresh <- t.stats.fresh + 1;
    fresh_pick t
  end

let on_ack t ~path ~ece =
  if path >= 0 && path < t.np then
    if ece then begin
      (* A marked ack means the path is congested: don't recycle its
         entropy and evict it from the cached set, but stay frozen —
         the remaining cached paths are still good, and a global
         re-explore would spray onto paths we already know are bad
         (including dead ones). Only a timeout resets everything. If
         marks evict every cached path, picks naturally fall back to
         fresh exploration. *)
      t.stats.acks_ece <- t.stats.acks_ece + 1;
      t.cached <- t.cached land lnot (1 lsl path) land 0xffff
    end
    else begin
      t.stats.acks_clean <- t.stats.acks_clean + 1;
      push t path;
      if path < 16 then t.cached <- t.cached lor (1 lsl path);
      if not t.frozen then begin
        t.fresh_left <- t.fresh_left - 1;
        if t.fresh_left <= 0 then t.frozen <- true
      end
    end

let on_loss t ~path =
  if path >= 0 && path < t.np then begin
    t.cached <- t.cached land lnot (1 lsl path) land 0xffff;
    (* Compact the ring in place, dropping every entry for [path]. *)
    let kept = ref 0 in
    for i = 0 to t.ent_len - 1 do
      let p = Char.code (Bytes.unsafe_get t.ent ((t.ent_head + i) mod cap t)) in
      if p <> path then begin
        Bytes.unsafe_set t.ent
          ((t.ent_head + !kept) mod cap t)
          (Char.unsafe_chr p);
        incr kept
      end
    done;
    t.stats.purged <- t.stats.purged + (t.ent_len - !kept);
    t.ent_len <- !kept;
    t.ent_tail <- (t.ent_head + !kept) mod cap t
  end

let on_timeout t =
  t.stats.timeouts <- t.stats.timeouts + 1;
  t.ent_head <- 0;
  t.ent_tail <- 0;
  t.ent_len <- 0;
  t.cached <- 0;
  t.frozen <- false;
  t.fresh_left <- freeze_after t.np

let invariants t =
  let errs = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let c = cap t in
  if not (t.ent_head >= 0 && t.ent_head < c) then
    bad "ent_head %d out of ring range %d" t.ent_head c;
  if not (t.ent_tail >= 0 && t.ent_tail < c) then
    bad "ent_tail %d out of ring range %d" t.ent_tail c;
  if not (t.ent_len >= 0 && t.ent_len <= c) then
    bad "ent_len %d out of [0, %d]" t.ent_len c;
  if (t.ent_head + t.ent_len) mod c <> t.ent_tail then
    bad "ring indices inconsistent: head=%d len=%d tail=%d cap=%d" t.ent_head
      t.ent_len t.ent_tail c;
  for i = 0 to t.ent_len - 1 do
    let p = Char.code (Bytes.get t.ent ((t.ent_head + i) mod c)) in
    if p >= t.np then bad "buffered entropy %d is not a path (np=%d)" p t.np
  done;
  for p = 0 to 15 do
    if t.cached land (1 lsl p) <> 0 && p >= t.np then
      bad "cached bit %d set beyond npaths %d" p t.np
  done;
  if t.cached lsr 16 <> 0 then bad "cached bitmap wider than 16 bits";
  if
    t.stats.picks
    <> t.stats.recycled + t.stats.cached_picks + t.stats.fresh
  then
    bad "pick conservation: %d <> %d recycled + %d cached + %d fresh"
      t.stats.picks t.stats.recycled t.stats.cached_picks t.stats.fresh;
  if state_bytes t > 25 && Bytes.length t.ent <= 16 then
    bad "state_bytes %d exceeds 25 with a default-sized FIFO" (state_bytes t);
  List.rev !errs
