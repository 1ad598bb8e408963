(* A bulk-transfer scenario: host A streams a 4 MB "file" to host B over
   UDP/IP with a simple fixed-window, per-block acknowledgement protocol
   built on the public API — the kind of workload (remote file service)
   the paper's NFS discussion motivates.

   The interesting systems behaviour to watch: interrupt coalescing under
   back-to-back blocks, double-cell DMA combining on the receive side, and
   end-to-end integrity of every block (the receiver re-verifies each
   block's contents against the sender's pattern).

   Run with: dune exec examples/udp_file_transfer.exe *)

open Osiris_core
module Msg = Osiris_xkernel.Msg
module Udp = Osiris_proto.Udp
module Engine = Osiris_sim.Engine
module Process = Osiris_sim.Process
module Mailbox = Osiris_sim.Mailbox
module Time = Osiris_sim.Time
module Board = Osiris_board.Board
module Irq = Osiris_os.Irq

let block_size = 32 * 1024
let file_size = 4 * 1024 * 1024
let window = 4
let data_port = 20
let ack_port = 21

(* Deterministic file contents: byte i of block b. *)
let block_byte b i = Char.chr ((i + (b * 131)) land 0xff)

let () =
  let eng, net = Network.pair ~machine_a:Machine.dec3000_600
      ~machine_b:Machine.dec3000_600 () in
  let a = net.Network.a and b = net.Network.b in
  let nblocks = file_size / block_size in

  (* Receiver on B: verify each block, ack it. *)
  let received = Array.make nblocks false in
  let corrupt = ref 0 in
  Udp.bind b.Host.udp ~port:data_port (fun ~src ~src_port:_ msg ->
      let data = Msg.read_all msg in
      let blk = Char.code (Bytes.get data 0)
                lor (Char.code (Bytes.get data 1) lsl 8) in
      let ok = ref true in
      for i = 4 to Bytes.length data - 1 do
        if Bytes.get data i <> block_byte blk (i - 4) then ok := false
      done;
      if not !ok then incr corrupt;
      if blk < nblocks then received.(blk) <- true;
      Msg.dispose msg;
      let ack = Msg.alloc b.Host.vs ~len:4 () in
      Msg.blit_into ack ~off:0
        ~src:(Bytes.init 4 (fun i -> Char.chr ((blk lsr (8 * i)) land 0xff)));
      Udp.output b.Host.udp ~dst:src ~src_port:ack_port ~dst_port:ack_port ack);

  (* Ack collector on A. *)
  let acks = Mailbox.create eng ~empty:() () in
  Udp.bind a.Host.udp ~port:ack_port (fun ~src:_ ~src_port:_ msg ->
      Msg.dispose msg;
      ignore (Mailbox.try_send acks ()));

  (* Sender on A: fixed window of [window] unacknowledged blocks. *)
  let t_start = ref 0 and t_end = ref 0 in
  Process.spawn eng ~name:"sender" (fun () ->
      t_start := Engine.now eng;
      let in_flight = ref 0 in
      for blk = 0 to nblocks - 1 do
        while !in_flight >= window do
          let () = Mailbox.recv acks in
          decr in_flight
        done;
        let msg =
          Msg.alloc a.Host.vs ~len:(block_size + 4) ~fill:(fun i ->
              if i < 4 then Char.chr ((blk lsr (8 * i)) land 0xff)
              else block_byte blk (i - 4)) ()
        in
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:data_port
          ~dst_port:data_port msg;
        incr in_flight
      done;
      while !in_flight > 0 do
        let () = Mailbox.recv acks in
        decr in_flight
      done;
      t_end := Engine.now eng;
      Engine.stop eng);

  Engine.run ~until:(Time.s 10) eng;

  let missing = Array.fold_left (fun n r -> if r then n else n + 1) 0 received in
  let elapsed = !t_end - !t_start in
  Printf.printf "transferred %d KB in %.2f ms simulated: %.1f Mbps goodput\n"
    (file_size / 1024)
    (Time.to_float_us elapsed /. 1000.)
    (Osiris_experiments.Report.mbps ~bytes_count:file_size ~ns:elapsed);
  Printf.printf "blocks: %d ok, %d missing, %d corrupt\n"
    (nblocks - missing) missing !corrupt;
  let sb = Board.stats b.Host.board in
  Printf.printf
    "receiver hardware: %d cells, %d DMA writes (%d double-cell), %d \
     interrupts for %d PDUs\n"
    sb.Board.cells_received sb.Board.dma_rx_transactions sb.Board.combined_dmas
    (Irq.count b.Host.irq) sb.Board.pdus_received;
  if missing > 0 || !corrupt > 0 then exit 1
