open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Board = Osiris_board.Board
module Stats = Osiris_util.Stats

let raw_vci = 9

let bind_raw (net : Network.t) =
  List.iter
    (fun (h : Host.t) ->
      Board.bind_vci h.Host.board ~vci:raw_vci (Board.kernel_channel h.Host.board))
    [ net.Network.a; net.Network.b ]

let warmup_rounds = 4

let rtt eng ?(settle = 0) ~rounds setup =
  let pong = Mailbox.create eng ~empty:() () in
  let ping = setup (fun () -> ignore (Mailbox.try_send pong ())) in
  let samples = Stats.create () in
  Process.spawn eng ~name:"pinger" (fun () ->
      if settle > 0 then Process.sleep eng settle;
      for i = 1 to warmup_rounds + rounds do
        let t0 = Engine.now eng in
        ping ();
        let () = Mailbox.recv pong in
        if i > warmup_rounds then
          Stats.add samples (Time.to_float_us (Engine.now eng - t0))
      done;
      Engine.stop eng);
  Engine.run ~until:(Time.s 30) eng;
  if Stats.count samples < rounds then
    failwith
      (Printf.sprintf "Measure.rtt: %d of %d round trips completed"
         (Stats.count samples) rounds);
  Stats.mean samples

let window eng ~warmup ~span sample =
  Engine.run ~until:warmup eng;
  let before = sample () in
  let t0 = Engine.now eng in
  Engine.run ~until:(t0 + span) eng;
  let after = sample () in
  (before, after, Engine.now eng - t0)
