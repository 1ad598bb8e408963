open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Board = Osiris_board.Board
module Atm_link = Osiris_link.Atm_link
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Plan = Osiris_fault.Plan
module Injector = Osiris_fault.Injector

type outcome = {
  seed : int;
  plan : string;
  corrupted_delivered : int;
  goodput_mbps : float;
  residual_reassemblies : int;
  violations : string list;
}

(* Every payload byte is a pure function of (message index, offset), with
   the index itself carried in the first two bytes — so a delivered PDU
   can be checked byte-for-byte against exactly what was sent without
   keeping the sent copies around. *)
let pattern_byte ~msg ~off =
  if off = 0 then msg land 0xff
  else if off = 1 then (msg lsr 8) land 0xff
  else ((msg * 131) + (off * 7) + 23) land 0xff

let fill_pattern ~msg ~len =
  Bytes.init len (fun off -> Char.chr (pattern_byte ~msg ~off))

let intact ~msg data =
  let ok = ref true in
  Bytes.iteri
    (fun off c -> if Char.code c <> pattern_byte ~msg ~off then ok := false)
    data;
  !ok

type sink = {
  mutable s_delivered : int;
  mutable s_corrupted : int;
  mutable s_bytes_ok : int;
}

let sink () = { s_delivered = 0; s_corrupted = 0; s_bytes_ok = 0 }

let deliver s ~msg_size ~vci:_ m =
  let data = Msg.read_all m in
  let len = Bytes.length data in
  s.s_delivered <- s.s_delivered + 1;
  if len = msg_size && len >= 2 then begin
    let msg =
      Char.code (Bytes.get data 0) lor (Char.code (Bytes.get data 1) lsl 8)
    in
    if intact ~msg data then s.s_bytes_ok <- s.s_bytes_ok + len
    else s.s_corrupted <- s.s_corrupted + 1
  end
  else s.s_corrupted <- s.s_corrupted + 1;
  Msg.dispose m

let run ?(seed = 1) ?(msgs = 60) ?(horizon = Time.ms 20) ?plan () =
  let machine = Machine.ds5000_200 and msg_size = 8192 in
  let eng = Engine.create () in
  let board =
    {
      Board.default_config with
      Board.reassembly_timeout = Time.ms 2;
      irq_reassert = Time.us 500;
    }
  in
  let cfg = { Host.default_config with Host.board; seed = 1000 + seed } in
  let a = Host.create eng machine ~addr:0x0a000001l cfg in
  let b =
    Host.create eng machine ~addr:0x0a000002l { cfg with seed = 2000 + seed }
  in
  let net = Network.connect eng ~seed:(3000 + seed) a b in
  let plan =
    match plan with
    | Some p -> p
    | None ->
        Plan.random
          ~nlinks:(Atm_link.config net.Network.a_to_b).Atm_link.nlinks
          ~seed ~horizon ()
  in
  Measure.bind_raw net;
  let sk = sink () in
  Demux.bind b.Host.demux ~vci:Measure.raw_vci ~name:"soak-sink"
    (deliver sk ~msg_size);
  (* Spread the sends over 70% of the horizon so every fault window sees
     traffic, leaving the tail for recovery timers to drain. *)
  let gap = Int.max 1 (horizon * 7 / 10 / Int.max 1 msgs) in
  Process.spawn eng ~name:"soak-tx" (fun () ->
      for i = 0 to msgs - 1 do
        let m = Msg.alloc a.Host.vs ~len:msg_size () in
        Msg.blit_into m ~off:0 ~src:(fill_pattern ~msg:i ~len:msg_size);
        Driver.send a.Host.driver ~vci:Measure.raw_vci m;
        Process.sleep eng gap
      done);
  let inj =
    Injector.inject eng ~plan ~link:net.Network.a_to_b ~board:b.Host.board ()
  in
  Engine.run ~until:horizon eng;
  Injector.disarm inj;
  Engine.run ~until:(horizon + Time.ms 10) eng;
  {
    seed;
    plan = Plan.to_string plan;
    corrupted_delivered = sk.s_corrupted;
    goodput_mbps =
      Report.mbps ~bytes_count:sk.s_bytes_ok ~ns:(Int.max 1 (Engine.now eng));
    residual_reassemblies = Board.reassemblies_in_progress b.Host.board;
    violations = Network.audit_pair net;
  }

(* ------------------------------------------------------------------ *)
(* Goodput vs drop probability: a single whole-run drop burst per point,
   recovery timers on. *)

let sweep_probs = [ 0.0; 0.0005; 0.001; 0.002; 0.004; 0.008 ]

let figure_goodput_vs_drop () =
  (* Sends are spaced wider than one PDU's wire time (~300 µs at 8 KB)
     so PDUs stay discrete; even so, a CRC reject swallows the rest of
     the offending train on that VC, which correlates failures — hence
     each point averages a few traffic seeds to tame the variance. *)
  let horizon = Time.ms 60 in
  let seeds = [ 7; 8; 9 ] in
  let runs =
    List.map
      (fun prob ->
        let plan seed =
          {
            Plan.none with
            Plan.seed;
            drop = [ { Plan.b_from = 0; b_until = horizon; prob } ];
          }
        in
        ( prob,
          List.map
            (fun seed -> run ~seed ~plan:(plan seed) ~msgs:80 ~horizon ())
            seeds ))
      sweep_probs
  in
  (match
     List.concat_map
       (fun (prob, outs) ->
         List.concat_map
           (fun o ->
             List.map
               (Printf.sprintf "seed %d, drop %g: %s" o.seed prob)
               ((if o.corrupted_delivered > 0 then
                   [
                     Printf.sprintf "%d corrupt PDUs delivered"
                       o.corrupted_delivered;
                   ]
                 else [])
               @ o.violations))
           outs)
       runs
   with
  | [] -> ()
  | errs -> failwith ("fault-sweep: " ^ String.concat "; " errs));
  let points =
    List.map
      (fun (prob, outs) ->
        let mean =
          List.fold_left (fun a o -> a +. o.goodput_mbps) 0.0 outs
          /. float_of_int (List.length seeds)
        in
        (int_of_float ((prob *. 10_000.) +. 0.5), mean))
      runs
  in
  {
    Report.title =
      "goodput vs per-cell drop probability (8 KB raw PDUs, reassembly \
       timeout + interrupt re-assert enabled)";
    xlabel = "per-cell drop probability (x 1e-4)";
    ylabel = "delivered goodput (Mb/s)";
    series = [ { Report.label = "byte-verified goodput"; points } ];
    paper_note =
      "robustness extension, not a paper figure: the AAL5-style CRC \
       discards every damaged PDU, so goodput decays roughly as \
       (1-p)^cells_per_pdu while everything delivered stays byte-exact";
  }
