open Osiris_sim
module Tc = Osiris_bus.Turbochannel
module Cache = Osiris_cache.Data_cache
module Cpu = Osiris_os.Cpu
module Irq = Osiris_os.Irq
module Wiring = Osiris_os.Wiring
module Board = Osiris_board.Board
module Phys_mem = Osiris_mem.Phys_mem
module Vspace = Osiris_mem.Vspace
module Demux = Osiris_xkernel.Demux
module Msg = Osiris_xkernel.Msg
module Ctx = Osiris_proto.Ctx
module Ip = Osiris_proto.Ip
module Udp = Osiris_proto.Udp
module Rng = Osiris_util.Rng

type t = {
  eng : Engine.t;
  machine : Machine.t;
  mem : Phys_mem.t;
  vs : Vspace.t;
  cpu : Cpu.t;
  bus : Tc.t;
  cache : Cache.t;
  irq : Irq.t;
  wiring : Wiring.t;
  board : Board.t;
  demux : Demux.t;
  driver : Driver.t;
  ctx : Ctx.t;
  ip : Ip.t;
  udp : Udp.t;
  addr : Ip.addr;
}

type config = {
  board : Board.config;
  ip : Ip.config;
  udp_checksum : bool;
  invalidation : Driver.invalidation;
  contiguous_buffers : bool;
  seed : int;
}

let default_config =
  {
    board = Board.default_config;
    (* The paper's 16 KB IP MTU, taken literally: fragment boundaries are
       not page-aligned (that policy is the 2.2 ablation). *)
    ip = { Ip.default_config with Ip.aligned_mtu = false };
    udp_checksum = false;
    invalidation = Driver.Lazy;
    contiguous_buffers = true;
    seed = 42;
  }

let rx_irq_line ch_id = ch_id
let tx_irq_line ch_id = 100 + ch_id
let violation_irq_line = 200

(* The kernel IP stack's connection uses a fixed well-known VCI. *)
let kernel_ip_vci = 5

let ip_vci _t = kernel_ip_vci

(* Background memory traffic of ordinary execution: a fraction of every
   executed slice re-appears as bus transactions in small chunks, so DMA
   and CPU execution steal bandwidth from each other on a shared bus. *)
let install_memory_load cpu bus cache fraction =
  if fraction > 0.0 then
    Cpu.set_memory_load cpu (fun slice ->
        let total_cycles =
          int_of_float
            (fraction *. float_of_int slice /. float_of_int Tc.cycle_ns)
        in
        let chunk_words = 64 in
        let nchunks = total_cycles / (chunk_words + 1) in
        for _ = 1 to Int.min nchunks 1024 do
          Tc.cpu_access bus ~bytes:(chunk_words * 4) ~overhead_cycles:1
        done;
        (* The same activity displaces cached network data ("these accesses
           are likely to evict all previously cached data", §2.3). *)
        let line_size = (Cache.config cache).Cache.line_size in
        Cache.pressure cache ~lines:(Int.min 4096 (total_cycles * 4 / line_size)))

(* Route a channel's receive and transmit interrupts to its driver. *)
let wire_channel irq ch drv =
  let id = Board.channel_id ch in
  Irq.set_handler irq ~line:(rx_irq_line id) (fun () ->
      Driver.on_rx_nonempty drv);
  Irq.set_handler irq ~line:(tx_irq_line id) (fun () ->
      Driver.on_tx_half_empty drv)

let create eng (machine : Machine.t) ~addr cfg =
  let rng = Rng.create ~seed:cfg.seed in
  let mem =
    Phys_mem.create ~scramble:(Rng.split rng) ~size:machine.Machine.mem_size
      ~page_size:machine.Machine.page_size ()
  in
  let vs = Vspace.create mem in
  let cpu = Cpu.create eng ~hz:machine.Machine.cpu_hz in
  let bus = Tc.create eng machine.Machine.bus in
  let cache = Cache.create eng ~mem ~bus machine.Machine.cache in
  install_memory_load cpu bus cache machine.Machine.mem_traffic_fraction;
  let irq = Irq.create eng ~cpu ~dispatch_cost:machine.Machine.interrupt_cost in
  let wiring =
    Wiring.create cpu machine.Machine.wiring machine.Machine.wiring_policy
  in
  let demux = Demux.create () in
  let on_interrupt reason =
    let line =
      match reason with
      | Board.Rx_nonempty id -> rx_irq_line id
      | Board.Tx_half_empty id -> tx_irq_line id
      | Board.Protection_violation _ -> violation_irq_line
    in
    Irq.assert_line irq ~line
  in
  let board =
    Board.create eng ~bus ~mem ~on_interrupt
      ~on_dma_write:(fun ~addr ~len -> Cache.dma_wrote cache ~addr ~len)
      cfg.board
  in
  (* Every line the board can raise is wired, to nothing until a driver
     takes it: an interrupt on it still pays its dispatch. *)
  for id = 0 to Board.n_channels - 1 do
    Irq.register irq ~line:(rx_irq_line id)
      ~name:(Printf.sprintf "rx%d" id)
      ignore;
    Irq.register irq ~line:(tx_irq_line id)
      ~name:(Printf.sprintf "tx%d" id)
      ignore
  done;
  Irq.register irq ~line:violation_irq_line ~name:"violation" ignore;
  let driver =
    Driver.create ~cpu ~cache ~wiring ~board ~channel:(Board.kernel_channel board)
      ~vs ~costs:machine.Machine.driver_costs ~demux
      ~invalidation:cfg.invalidation
      ~rx_buffer_size:machine.Machine.rx_buffer_size
      ~rx_pool_buffers:machine.Machine.rx_pool_buffers
      ~contiguous_buffers:cfg.contiguous_buffers ()
  in
  wire_channel irq (Board.kernel_channel board) driver;
  let ctx = Ctx.create ~cpu ~cache machine.Machine.proto_costs in
  (* IP and UDP reference each other; tie the knot through a ref. *)
  let udp_ref = ref None in
  let ip =
    Ip.create ctx cfg.ip ~src:addr ~page_size:machine.Machine.page_size
      ~send:(fun frag -> Driver.send driver ~vci:kernel_ip_vci frag)
      ~deliver:(fun ~proto ~src msg ->
        match !udp_ref with
        | Some udp when proto = Udp.protocol_number -> Udp.input udp ~src msg
        | _ -> Msg.dispose msg)
  in
  let udp = Udp.create ctx ~checksum:cfg.udp_checksum ~ip in
  udp_ref := Some udp;
  Board.bind_vci board ~vci:kernel_ip_vci (Board.kernel_channel board);
  Demux.bind demux ~vci:kernel_ip_vci ~name:"ip" (fun ~vci:_ msg ->
      Ip.input ip msg);
  {
    eng;
    machine;
    mem;
    vs;
    cpu;
    bus;
    cache;
    irq;
    wiring;
    board;
    demux;
    driver;
    ctx;
    ip;
    udp;
    addr;
  }

let register_channel (t : t) ch drv = wire_channel t.irq ch drv

let start (t : t) =
  Board.start t.board;
  Driver.start t.driver

let set_violation_handler (t : t) f =
  Irq.set_handler t.irq ~line:violation_irq_line f

let new_udp_test_receiver (t : t) ~port ~on_msg =
  Udp.bind t.udp ~port (fun ~src:_ ~src_port:_ msg ->
      on_msg ~len:(Msg.length msg);
      Msg.dispose msg)
