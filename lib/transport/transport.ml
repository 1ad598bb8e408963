module Engine = Osiris_sim.Engine
module Process = Osiris_sim.Process
module Signal = Osiris_sim.Signal
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Host = Osiris_core.Host
module Driver = Osiris_core.Driver
module Network = Osiris_core.Network

type stats = { mutable garbled : int }

type t = {
  eng : Engine.t;
  sender : Sender.t;
  receiver : Receiver.t;
  stats : stats;
}

(* The sender/receiver cores must never block (the RTO timer drives the
   sender from a plain engine callback, where [Driver.send] — which can
   sleep on a full transmit queue — is off limits). Each direction gets
   a pump: cores enqueue encoded PDUs here and a dedicated process
   performs the actual sends in order. *)
let make_pump eng host ~vci ~name =
  let q = Queue.create () in
  let nonempty = Signal.create eng in
  Process.spawn eng ~name (fun () ->
      let rec loop () =
        match Queue.take_opt q with
        | Some bytes ->
            let len = Bytes.length bytes in
            let m = Msg.alloc host.Host.vs ~len () in
            Msg.blit_into m ~off:0 ~src:bytes;
            Driver.send host.Host.driver ~vci ~from_user:false m;
            loop ()
        | None ->
            Signal.wait nonempty;
            loop ()
      in
      loop ());
  fun bytes ->
    Queue.add bytes q;
    Signal.broadcast nonempty

let attach ?name:(nm = "tp") ?(config = Sender.default_config)
    ?(on_state = fun _ -> ()) eng ~src ~dst ~data_tx_vci ~data_rx_vci
    ~ack_tx_vci ~ack_rx_vci ~deliver () =
  let stats = { garbled = 0 } in
  let data_pump = make_pump eng src ~vci:data_tx_vci ~name:(nm ^ ".data") in
  let ack_pump = make_pump eng dst ~vci:ack_tx_vci ~name:(nm ^ ".ack") in
  let sender =
    Sender.create eng ~name:(nm ^ ".snd") ~config ~on_state
      ~tx:(fun ~seq ~retransmit:_ payload ->
        data_pump (Wire.encode_data ~seq payload))
      ()
  in
  let receiver =
    Receiver.create ~name:(nm ^ ".rcv") ~window:config.Sender.window
      ~deliver:(fun ~seq:_ payload -> deliver payload)
      ~tx_ack:(fun ~ack ~sack ~ece ->
        ack_pump (Wire.encode_ack ~ack ~sack ~ece))
      ()
  in
  Demux.bind dst.Host.demux ~vci:data_rx_vci ~name:(nm ^ ".data")
    (fun ~vci:_ msg ->
      let b = Msg.read_all msg in
      let marked = Msg.marked msg in
      Msg.dispose msg;
      match Wire.decode_data b with
      | Ok (seq, payload) -> Receiver.on_data receiver ~seq ~marked payload
      | Error _ -> stats.garbled <- stats.garbled + 1);
  Demux.bind src.Host.demux ~vci:ack_rx_vci ~name:(nm ^ ".ack")
    (fun ~vci:_ msg ->
      let b = Msg.read_all msg in
      Msg.dispose msg;
      match Wire.decode_ack b with
      | Ok (ack, sack, ece) -> Sender.on_ack sender ~ack ~sack ~ece
      | Error _ -> stats.garbled <- stats.garbled + 1);
  { eng; sender; receiver; stats }

let connect_via ?name ?config ?on_state topo ~src ~dst ~deliver () =
  let data = Network.open_vc topo ~src ~dst in
  let ack = Network.open_vc topo ~src:dst ~dst:src in
  let src_host = Network.host topo src in
  attach ?name ?config ?on_state src_host.Host.eng ~src:src_host
    ~dst:(Network.host topo dst)
    ~data_tx_vci:data.Network.src_vci ~data_rx_vci:data.Network.dst_vci
    ~ack_tx_vci:ack.Network.src_vci ~ack_rx_vci:ack.Network.dst_vci ~deliver
    ()

let send t data = Sender.offer t.sender data
let close t = Sender.close t.sender
let state t = Sender.state t.sender
let sender t = t.sender
let receiver t = t.receiver
let garbled t = t.stats.garbled

let invariants t =
  Sender.invariants t.sender @ Receiver.invariants t.receiver
