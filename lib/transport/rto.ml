module Time = Osiris_sim.Time

(* RFC 6298 retransmission-timeout estimator with Karn's algorithm.
   Times are engine nanoseconds; the integer shifts implement the
   classic 1/8 (srtt gain) and 1/4 (rttvar gain) filters. *)

type t = {
  rto_min : Time.t;
  rto_max : Time.t;
  mutable srtt : Time.t; (* < 0 until the first sample *)
  mutable rttvar : Time.t;
  mutable base : Time.t; (* un-backed-off RTO *)
  mutable shift : int; (* backoff exponent *)
  mutable nsamples : int;
}

let create ~init ~min:rto_min ~max:rto_max =
  if rto_min > init || init > rto_max then
    invalid_arg "Rto.create: need min <= init <= max";
  { rto_min; rto_max; srtt = -1; rttvar = 0; base = init; shift = 0;
    nsamples = 0 }

let clamp t v = Int.max t.rto_min (Int.min t.rto_max v)

let sample t rtt =
  let rtt = Int.max rtt 1 in
  if t.srtt < 0 then begin
    t.srtt <- rtt;
    t.rttvar <- rtt / 2
  end
  else begin
    let err = abs (t.srtt - rtt) in
    t.rttvar <- ((3 * t.rttvar) + err) / 4;
    t.srtt <- ((7 * t.srtt) + rtt) / 8
  end;
  t.base <- clamp t (t.srtt + Int.max (4 * t.rttvar) 1);
  (* A fresh sample of an un-retransmitted segment ends any backoff
     episode (Karn's algorithm: ambiguous samples never got here). *)
  t.shift <- 0;
  t.nsamples <- t.nsamples + 1

let current t =
  let shift = Int.min t.shift 16 in
  Int.min t.rto_max (t.base lsl shift)

let backoff t = if t.shift < 16 then t.shift <- t.shift + 1
let srtt t = if t.srtt < 0 then None else Some t.srtt
