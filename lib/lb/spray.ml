module Engine = Osiris_sim.Engine
module Time = Osiris_sim.Time
module Process = Osiris_sim.Process
module Signal = Osiris_sim.Signal
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Host = Osiris_core.Host
module Driver = Osiris_core.Driver
module Network = Osiris_core.Network
module Sender = Osiris_transport.Sender
module Receiver = Osiris_transport.Receiver
module Wire = Osiris_transport.Wire

type mode = Reps | Static_hash | Single

type t = {
  name : string;
  reps : Reps.t option;
  sender : Sender.t;
  receiver : Receiver.t;
  mv : Network.mvc;
  np : int;
  sends : int array;
  last_send : Time.t array;
  mutable garbled : int;
}

(* Per-segment path bookkeeping, 1 B per segment, grown on demand. This
   is transport-side state (like the sender's segment records), not
   balancer state: REPS itself never remembers per-packet anything. *)
let no_path = 255

let seg_path_get cell seq =
  let b = !cell in
  if seq >= 0 && seq < Bytes.length b then
    match Char.code (Bytes.get b seq) with
    | p when p = no_path -> None
    | p -> Some p
  else None

let seg_path_set cell seq p =
  let b = !cell in
  let n = Bytes.length b in
  if seq >= n then begin
    let b' = Bytes.make (Int.max (2 * n) (seq + 1)) (Char.chr no_path) in
    Bytes.blit b 0 b' 0 n;
    cell := b'
  end;
  Bytes.set !cell seq (Char.chr p)

(* The sender core may run from an engine callback (RTO timer) where
   [Driver.send] — which can sleep on a full transmit queue — is off
   limits, so PDUs are enqueued with their path and a dedicated process
   performs the sends in order. *)
let make_mp_pump eng host ~vcis ~name =
  let q = Queue.create () in
  let nonempty = Signal.create eng in
  Process.spawn eng ~name (fun () ->
      let rec loop () =
        match Queue.take_opt q with
        | Some (path, bytes) ->
            let len = Bytes.length bytes in
            let m = Msg.alloc host.Host.vs ~len () in
            Msg.blit_into m ~off:0 ~src:bytes;
            Driver.send host.Host.driver ~vci:vcis.(path) ~from_user:false m;
            loop ()
        | None ->
            Signal.wait nonempty;
            loop ()
      in
      loop ());
  fun path bytes ->
    Queue.add (path, bytes) q;
    Signal.broadcast nonempty

let connect ?name:(nm = "mp") ?(config = Sender.default_config)
    ?(on_state = fun _ -> ()) ?(mode = Reps) topo ~src ~dst ~deliver () =
  let mv = Network.open_vc_paths topo ~src ~dst in
  let ack_vc = Network.open_vc topo ~src:dst ~dst:src in
  let np = Array.length mv.Network.src_vcis in
  if np > no_path then invalid_arg "Spray.connect: more than 254 paths";
  let src_host = Network.host topo src in
  let dst_host = Network.host topo dst in
  let eng = src_host.Host.eng in
  let reps =
    match mode with
    | Reps -> Some (Reps.create ~seed:((src * 8191) + dst) ~npaths:np ())
    | Static_hash | Single -> None
  in
  (* The strawman: one hash-chosen path for the connection's lifetime,
     the way VCI-hashed ECMP would pin it. A real avalanche mix, so
     collisions are the honest birthday kind, not artifacts of the
     modulus. *)
  let static_path =
    let h = (src * 0x9e3779b1) lxor (dst * 0x85ebca6b) in
    let h = h lxor (h lsr 13) in
    let h = h * 0xc2b2ae35 in
    let h = h lxor (h lsr 16) in
    h land max_int mod np
  in
  (* seq -> path of latest transmission *)
  let seg_paths = ref (Bytes.make 256 (Char.chr no_path)) in
  let sends = Array.make np 0 in
  let last_send = Array.make np Time.zero in
  let data_pump =
    make_mp_pump eng src_host ~vcis:mv.Network.src_vcis ~name:(nm ^ ".data")
  in
  let ack_pump =
    make_mp_pump eng dst_host
      ~vcis:[| ack_vc.Network.src_vci |]
      ~name:(nm ^ ".ack")
  in
  let sender =
    Sender.create eng ~name:(nm ^ ".snd") ~config ~on_state
      ?on_timeout:
        (match reps with
        | Some r -> Some (fun () -> Reps.on_timeout r)
        | None -> None)
      ~tx:(fun ~seq ~retransmit payload ->
        let p =
          match (mode, reps) with
          | Reps, Some r -> (
              (* A retransmission is the loss signal for the path the
                 original took: purge its recycled entropy first, and
                 never send the retry on the very path that just lost
                 it (the purge rules out recycled and cached picks, but
                 a fresh explore pick can still collide). *)
              match (retransmit, seg_path_get seg_paths seq) with
              | true, Some old ->
                  Reps.on_loss r ~path:old;
                  let p = Reps.pick r in
                  if p <> old then p
                  else
                    let p = Reps.pick r in
                    if p <> old then p else (old + 1) mod np
              | _ -> Reps.pick r)
          | Static_hash, _ -> static_path
          | (Single | Reps), _ -> 0
        in
        seg_path_set seg_paths seq p;
        sends.(p) <- sends.(p) + 1;
        last_send.(p) <- Engine.now eng;
        data_pump p (Wire.encode_data ~seq payload))
      ()
  in
  (* Which VCI fired tells the receiver the path; the ack it emits
     synchronously from [on_data] echoes that as its entropy byte. *)
  let cur_path = ref 0 in
  let receiver =
    Receiver.create ~name:(nm ^ ".rcv") ~window:config.Sender.window
      ~deliver:(fun ~seq:_ payload -> deliver payload)
      ~tx_ack:(fun ~ack ~sack ~ece ->
        ack_pump 0 (Wire.encode_ack_mp ~ack ~sack ~ece ~entropy:!cur_path))
      ()
  in
  let t =
    {
      name = nm;
      reps;
      sender;
      receiver;
      mv;
      np;
      sends;
      last_send;
      garbled = 0;
    }
  in
  Array.iteri
    (fun p vci ->
      Demux.bind dst_host.Host.demux ~vci
        ~name:(Printf.sprintf "%s.data%d" nm p)
        (fun ~vci:_ msg ->
          let b = Msg.read_all msg in
          let marked = Msg.marked msg in
          Msg.dispose msg;
          match Wire.decode_data b with
          | Ok (seq, payload) ->
              cur_path := p;
              Receiver.on_data receiver ~seq ~marked payload
          | Error _ -> t.garbled <- t.garbled + 1))
    mv.Network.dst_vcis;
  Demux.bind src_host.Host.demux ~vci:ack_vc.Network.dst_vci
    ~name:(nm ^ ".ack")
    (fun ~vci:_ msg ->
      let b = Msg.read_all msg in
      Msg.dispose msg;
      match Wire.decode_ack_mp b with
      | Ok (ack, sack, ece, entropy) ->
          (* Recycle the entropy before the ack can pump new segments,
             so those picks already see it. *)
          (match reps with
          | Some r -> Reps.on_ack r ~path:entropy ~ece
          | None -> ());
          Sender.on_ack sender ~ack ~sack ~ece
      | Error _ -> t.garbled <- t.garbled + 1);
  t

let send t data = Sender.offer t.sender data
let close t = Sender.close t.sender
let state t = Sender.state t.sender
let sender t = t.sender
let receiver t = t.receiver
let garbled t = t.garbled
let reps t = t.reps
let npaths t = t.np
let mvc t = t.mv
let sends t p = t.sends.(p)
let last_send t p = t.last_send.(p)

let invariants t =
  let errs =
    Sender.invariants t.sender
    @ Receiver.invariants t.receiver
    @ (match t.reps with
      | Some r -> Reps.invariants r
      | None -> [])
  in
  let total = Array.fold_left ( + ) 0 t.sends in
  if total <> (Sender.stats t.sender).Sender.transmissions then
    errs
    @ [
        Printf.sprintf "%s: per-path sends %d <> transmissions %d" t.name
          total (Sender.stats t.sender).Sender.transmissions;
      ]
  else errs
