open Osiris_sim

type topology = Shared_bus | Crossbar

type config = {
  clock_hz : int;
  width_bytes : int;
  dma_read_overhead : int;
  dma_write_overhead : int;
  pio_read_cycles : int;
  pio_write_cycles : int;
  topology : topology;
}

let turbochannel_config topology =
  {
    clock_hz = 25_000_000;
    width_bytes = 4;
    dma_read_overhead = 13;
    dma_write_overhead = 8;
    pio_read_cycles = 15;
    pio_write_cycles = 4;
    topology;
  }

type t = {
  cfg : config;
  io_port : Resource.t; (* DMA + PIO; also CPU traffic when Shared_bus *)
  mem_port : Resource.t; (* CPU traffic when Crossbar *)
}

let create eng cfg =
  let io_port = Resource.create eng ~capacity:1 in
  let mem_port =
    match cfg.topology with
    | Shared_bus -> io_port
    | Crossbar -> Resource.create eng ~capacity:1
  in
  { cfg; io_port; mem_port }

let cycle_ns t = 1_000_000_000 / t.cfg.clock_hz

let peak_mbps t =
  float_of_int (t.cfg.width_bytes * 8) *. float_of_int t.cfg.clock_hz /. 1e6

let words_of_bytes t bytes = (bytes + t.cfg.width_bytes - 1) / t.cfg.width_bytes

let cycles_ns t cycles = cycles * cycle_ns t

let dma_transaction_ns t ~dir ~bytes =
  let overhead =
    match dir with
    | `Read -> t.cfg.dma_read_overhead
    | `Write -> t.cfg.dma_write_overhead
  in
  cycles_ns t (overhead + words_of_bytes t bytes)

(* Arbitration: the DMA engines win the bus over CPU traffic (an adaptor
   that loses the bus overruns its input FIFO); neither preempts a
   transfer in progress. *)
let dma_priority = 0
let cpu_priority = 5

let dma_read t ~bytes =
  Resource.use t.io_port ~priority:dma_priority
    ~duration:(dma_transaction_ns t ~dir:`Read ~bytes)

let dma_write t ~bytes =
  Resource.use t.io_port ~priority:dma_priority
    ~duration:(dma_transaction_ns t ~dir:`Write ~bytes)

(* The callback forms pass the priority already boxed, so a transaction
   does not allocate its option. *)
let dma_priority_opt = Some dma_priority

let dma_read_then t a ~bytes k =
  Resource.use_then ?priority:dma_priority_opt t.io_port a
    ~duration:(dma_transaction_ns t ~dir:`Read ~bytes)
    k

let dma_write_then t a ~bytes k =
  Resource.use_then ?priority:dma_priority_opt t.io_port a
    ~duration:(dma_transaction_ns t ~dir:`Write ~bytes)
    k

let cpu_access t ~bytes ~overhead_cycles =
  let duration = cycles_ns t (overhead_cycles + words_of_bytes t bytes) in
  Resource.use t.mem_port ~priority:cpu_priority ~duration

let pio_read_words t ~words =
  if words > 0 then
    Resource.use t.io_port ~duration:(cycles_ns t (words * t.cfg.pio_read_cycles))

let pio_write_words t ~words =
  if words > 0 then
    Resource.use t.io_port
      ~duration:(cycles_ns t (words * t.cfg.pio_write_cycles))

let max_dma_mbps t ~dir ~burst =
  let overhead =
    match dir with
    | `Read -> t.cfg.dma_read_overhead
    | `Write -> t.cfg.dma_write_overhead
  in
  let words = words_of_bytes t burst in
  float_of_int words
  /. float_of_int (words + overhead)
  *. peak_mbps t

let busy_stats t = Resource.stats t.io_port
