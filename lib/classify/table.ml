(* Open-addressed classification table: the board's VC demux and the
   switch's routing lookup at connection-dense scale.

   The paper's early-demultiplexing argument (§3.1) assumed a handful of
   VCs; at thousands of concurrent VCs the classification step itself is
   the per-cell hot path, so it gets the same treatment the descriptor
   queues got: a flat, preallocated structure whose lookup allocates
   nothing and whose worst case is bounded.

   Layout: two parallel arrays (packed int keys, values), power-of-two
   capacity, linear probing with Robin-Hood insertion — an arriving key
   that has probed further than the incumbent steals the slot, which
   bounds the variance of probe lengths — and backward-shift deletion,
   so no tombstones ever accumulate. [c_maxd] is the largest
   displacement present; a lookup gives up after [c_maxd + 1] probes,
   and inserts that would push the displacement to [c_bound] force a
   capacity doubling, so the probe bound is a structural invariant, not
   a hope. [check] audits the structural invariants; the tests compare
   the table with a [Hashtbl] model. *)

type 'a t = {
  mutable c_keys : int array; (* -1 = empty slot *)
  mutable c_vals : 'a array;
  mutable c_mask : int; (* capacity - 1 (capacity is a power of two) *)
  mutable c_count : int;
  mutable c_maxd : int; (* max displacement among present keys *)
  c_bound : int; (* displacements must stay < c_bound (else grow) *)
  c_dummy : 'a; (* fills empty value slots so removals don't pin *)
  mutable c_lookups : int;
  mutable c_probe_sum : int;
  c_hist : int array; (* probe-length histogram: c_hist.(probes-1) *)
}

type probe_stats = {
  lookups : int;
  probes : int;
  max_probe : int;  (** worst case possible right now: c_maxd + 1 *)
  p99_probe : int;  (** 99th percentile of recorded lookups *)
}

(* splitmix64-style finalizer on the packed key; constants truncated to
   OCaml's 63-bit int range. Top bit cleared so [land mask] is safe. *)
let hash key =
  let h = key lxor (key lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let rec pow2_ge n acc = if acc >= n then acc else pow2_ge n (acc * 2)

let create ?(probe_bound = 16) ~dummy n =
  if probe_bound < 4 then
    invalid_arg "Classify.Table.create: probe_bound < 4";
  if n < 0 then invalid_arg "Classify.Table.create: negative capacity";
  let cap = pow2_ge (Int.max 8 n) 8 in
  {
    c_keys = Array.make cap (-1);
    c_vals = Array.make cap dummy;
    c_mask = cap - 1;
    c_count = 0;
    c_maxd = 0;
    c_bound = probe_bound;
    c_dummy = dummy;
    c_lookups = 0;
    c_probe_sum = 0;
    c_hist = Array.make probe_bound 0;
  }

let length t = t.c_count
let capacity t = t.c_mask + 1
let probe_bound t = t.c_bound

(* The probe loop is a top-level function (not a local closure: R5) and
   returns the final displacement — [d >= 0] when the key sits at
   [home + d], [-(probes)] on a miss — so the caller can account probe
   costs without boxing a result pair. *)
let rec probe_loop keys mask maxd key i d =
  let k = Array.unsafe_get keys i in
  if k = key then d
  else if k = -1 || d >= maxd then -d - 1
  else probe_loop keys mask maxd key ((i + 1) land mask) (d + 1)

let record t probes =
  t.c_lookups <- t.c_lookups + 1;
  t.c_probe_sum <- t.c_probe_sum + probes;
  let h = t.c_hist in
  let b = if probes > Array.length h then Array.length h - 1 else probes - 1 in
  Array.unsafe_set h b (Array.unsafe_get h b + 1)

(* The per-cell classification step. Negative keys collide with the
   empty sentinel, so they are a structural miss by definition. *)
let find_slot t key =
  if key < 0 then -1
  else begin
    let home = hash key land t.c_mask in
    let d = probe_loop t.c_keys t.c_mask t.c_maxd key home 0 in
    if d >= 0 then begin
      record t (d + 1);
      (home + d) land t.c_mask
    end
    else begin
      record t (-d);
      -1
    end
  end

let slot_value t slot = t.c_vals.(slot)
let slot_key t slot = t.c_keys.(slot)

(* Membership and reads that must not perturb the probe accounting. *)
let quiet_find t key =
  if key < 0 then -1
  else
    let home = hash key land t.c_mask in
    let d = probe_loop t.c_keys t.c_mask t.c_maxd key home 0 in
    if d >= 0 then (home + d) land t.c_mask else -1

let mem t key = quiet_find t key >= 0

let find t key =
  let s = quiet_find t key in
  if s >= 0 then Some t.c_vals.(s) else None

let displacement t k i = (i - (hash k land t.c_mask)) land t.c_mask

(* Robin-Hood insert of a key known to fit (capacity > count). Replaces
   in place when the key is present. *)
let rec insert_loop t key value i d =
  let k = t.c_keys.(i) in
  if k = key then t.c_vals.(i) <- value
  else if k = -1 then begin
    t.c_keys.(i) <- key;
    t.c_vals.(i) <- value;
    t.c_count <- t.c_count + 1;
    if d > t.c_maxd then t.c_maxd <- d
  end
  else begin
    let kd = displacement t k i in
    if kd < d then begin
      (* the incumbent is closer to home: steal its slot and carry it *)
      let v = t.c_vals.(i) in
      t.c_keys.(i) <- key;
      t.c_vals.(i) <- value;
      if d > t.c_maxd then t.c_maxd <- d;
      insert_loop t k v ((i + 1) land t.c_mask) (kd + 1)
    end
    else insert_loop t key value ((i + 1) land t.c_mask) (d + 1)
  end

let raw_insert t key value = insert_loop t key value (hash key land t.c_mask) 0

(* Double the capacity (repeatedly, if a pathological key set keeps the
   displacement at the bound) and reinsert everything. *)
let grow t =
  let rec attempt cap =
    let old_keys = t.c_keys and old_vals = t.c_vals in
    t.c_keys <- Array.make cap (-1);
    t.c_vals <- Array.make cap t.c_dummy;
    t.c_mask <- cap - 1;
    t.c_count <- 0;
    t.c_maxd <- 0;
    Array.iteri
      (fun i k -> if k >= 0 then raw_insert t k old_vals.(i))
      old_keys;
    if t.c_maxd >= t.c_bound then begin
      (* undo is unnecessary: reinserting into a bigger table only needs
         the new arrays; restart from the freshly built state *)
      attempt (cap * 2)
    end
  in
  attempt ((t.c_mask + 1) * 2)

let add t key value =
  if key < 0 then invalid_arg "Classify.Table.add: negative key";
  raw_insert t key value;
  (* Load factor capped at 7/8; the displacement bound usually triggers
     first. Either way the table after [add] satisfies maxd < bound. *)
  if t.c_maxd >= t.c_bound || t.c_count * 8 > (t.c_mask + 1) * 7 then grow t

(* Backward-shift deletion: pull successors with non-zero displacement
   one slot back until a hole or a home-positioned key. Top-level rec so
   a hot caller (the switch's per-cell EPD bookkeeping) stays
   closure-free. *)
let rec shift_back t i =
  let j = (i + 1) land t.c_mask in
  let k = Array.unsafe_get t.c_keys j in
  if k = -1 || (j - (hash k land t.c_mask)) land t.c_mask = 0 then begin
    t.c_keys.(i) <- -1;
    t.c_vals.(i) <- t.c_dummy
  end
  else begin
    t.c_keys.(i) <- k;
    t.c_vals.(i) <- t.c_vals.(j);
    shift_back t j
  end

let remove t key =
  let s = quiet_find t key in
  if s >= 0 then begin
    t.c_count <- t.c_count - 1;
    shift_back t s
  end

let iter f t =
  Array.iteri (fun i k -> if k >= 0 then f k t.c_vals.(i)) t.c_keys

let fold f t init =
  let acc = ref init in
  Array.iteri (fun i k -> if k >= 0 then acc := f k t.c_vals.(i) !acc) t.c_keys;
  !acc

(* ------------------------------------------------------------------ *)
(* Probe accounting: the cost-model inputs of the demux_scale figure. *)

let probe_stats t =
  let p99 =
    if t.c_lookups = 0 then 0
    else begin
      let want =
        (* smallest k with cum(k) >= 99% of lookups *)
        t.c_lookups - (t.c_lookups / 100)
      in
      let rec scan i cum =
        if i >= Array.length t.c_hist then Array.length t.c_hist
        else begin
          let cum = cum + t.c_hist.(i) in
          if cum >= want then i + 1 else scan (i + 1) cum
        end
      in
      scan 0 0
    end
  in
  {
    lookups = t.c_lookups;
    probes = t.c_probe_sum;
    max_probe = t.c_maxd + 1;
    p99_probe = p99;
  }

let reset_probe_stats t =
  t.c_lookups <- 0;
  t.c_probe_sum <- 0;
  Array.fill t.c_hist 0 (Array.length t.c_hist) 0

(* Analytic footprint (R2 forbids Obj-based measurement): two data words
   per slot plus one array header each, the record's dozen words, and
   the histogram. 8-byte words. *)
let resident_bytes t =
  let cap = t.c_mask + 1 in
  let words = (2 * (cap + 1)) + (Array.length t.c_hist + 1) + 14 in
  words * 8

(* ------------------------------------------------------------------ *)
(* Structural audit. Cold path: runs at sweep points and in tests, never
   per cell. *)

let check t =
  let v = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  let occupied = ref 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        incr occupied;
        let d = displacement t k i in
        if d > t.c_maxd then
          bad "key %d at slot %d: displacement %d exceeds maxd %d" k i d
            t.c_maxd;
        if d >= t.c_bound then
          bad "key %d at slot %d: displacement %d breaks the bound %d" k i d
            t.c_bound;
        let s = quiet_find t k in
        if s <> i then bad "key %d at slot %d not found there (probe hit %d)" k i s
      end)
    t.c_keys;
  if !occupied <> t.c_count then
    bad "count %d but %d occupied slots" t.c_count !occupied;
  List.rev !v
