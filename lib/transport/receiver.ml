type stats = {
  mutable segs_received : int;
  mutable delivered_segs : int;
  mutable delivered_bytes : int;
  mutable duplicates : int;
  mutable out_of_window : int;
  mutable marked_pdus : int;
  mutable acks_sent : int;
}

type t = {
  name : string;
  window : int;
  deliver : seq:int -> Bytes.t -> unit;
  tx_ack : ack:int -> sack:int -> ece:bool -> unit;
  mutable rcv_nxt : int;
  buf : (int, Bytes.t) Hashtbl.t; (* out-of-order segments > rcv_nxt *)
  stats : stats;
}

let create ?(name = "rcv") ~window ~deliver ~tx_ack () =
  if window < 1 then invalid_arg "Receiver.create: window < 1";
  {
    name;
    window;
    deliver;
    tx_ack;
    rcv_nxt = 0;
    buf = Hashtbl.create 64;
    stats =
      {
        segs_received = 0;
        delivered_segs = 0;
        delivered_bytes = 0;
        duplicates = 0;
        out_of_window = 0;
        marked_pdus = 0;
        acks_sent = 0;
      };
  }

let stats t = t.stats

(* Every data arrival — including duplicates — is answered with one ack
   carrying the cumulative edge, the selective-ack bitmap over the
   out-of-order buffer, and the congestion echo of exactly this PDU. *)
let on_data t ~seq ~marked payload =
  t.stats.segs_received <- t.stats.segs_received + 1;
  if marked then t.stats.marked_pdus <- t.stats.marked_pdus + 1;
  if seq < t.rcv_nxt || Hashtbl.mem t.buf seq then
    t.stats.duplicates <- t.stats.duplicates + 1
  else if seq >= t.rcv_nxt + t.window then
    (* The sender's window never outruns ours (same [window] config), so
       this only fires on garbage sequence numbers. Drop; the cumulative
       ack below still tells the sender where we stand. *)
    t.stats.out_of_window <- t.stats.out_of_window + 1
  else begin
    Hashtbl.replace t.buf seq payload;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt t.buf t.rcv_nxt with
      | None -> continue := false
      | Some p ->
          Hashtbl.remove t.buf t.rcv_nxt;
          t.stats.delivered_segs <- t.stats.delivered_segs + 1;
          t.stats.delivered_bytes <- t.stats.delivered_bytes + Bytes.length p;
          t.deliver ~seq:t.rcv_nxt p;
          t.rcv_nxt <- t.rcv_nxt + 1
    done
  end;
  let sack = ref 0 in
  for i = 0 to 31 do
    if Hashtbl.mem t.buf (t.rcv_nxt + 1 + i) then sack := !sack lor (1 lsl i)
  done;
  t.stats.acks_sent <- t.stats.acks_sent + 1;
  t.tx_ack ~ack:t.rcv_nxt ~sack:!sack ~ece:marked

let invariants t =
  let errs = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if t.stats.delivered_segs <> t.rcv_nxt then
    bad "%s: delivered_segs=%d <> rcv_nxt=%d" t.name t.stats.delivered_segs
      t.rcv_nxt;
  if Hashtbl.length t.buf > t.window then
    bad "%s: %d buffered segments exceed window %d" t.name
      (Hashtbl.length t.buf) t.window;
  Hashtbl.iter
    (fun q _ ->
      if q <= t.rcv_nxt || q >= t.rcv_nxt + t.window then
        bad "%s: buffered seq %d outside (rcv_nxt=%d, +window=%d)" t.name q
          t.rcv_nxt t.window)
    t.buf;
  List.rev !errs
