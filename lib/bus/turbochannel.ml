open Osiris_sim

type topology = Shared_bus | Crossbar

(* The TURBOchannel constants (§2.5.1): one 32-bit word per cycle at
   25 MHz, 13 cycles of setup per DMA read (transmit) and 8 per DMA
   write (receive); a programmed-I/O word read costs 15 cycles, a write
   4. *)
let clock_hz = 25_000_000
let width_bytes = 4
let dma_read_overhead = 13
let dma_write_overhead = 8
let pio_read_cycles = 15
let pio_write_cycles = 4

type t = {
  io_port : Resource.t; (* DMA + PIO; also CPU traffic when Shared_bus *)
  mem_port : Resource.t; (* CPU traffic when Crossbar *)
}

let create eng topology =
  let io_port = Resource.create eng ~capacity:1 in
  let mem_port =
    match topology with
    | Shared_bus -> io_port
    | Crossbar -> Resource.create eng ~capacity:1
  in
  { io_port; mem_port }

let cycle_ns = 1_000_000_000 / clock_hz
let peak_mbps = float_of_int (width_bytes * 8) *. float_of_int clock_hz /. 1e6
let words_of_bytes bytes = (bytes + width_bytes - 1) / width_bytes
let cycles_ns cycles = cycles * cycle_ns

let overhead = function
  | `Read -> dma_read_overhead
  | `Write -> dma_write_overhead

let dma_transaction_ns ~dir ~bytes =
  cycles_ns (overhead dir + words_of_bytes bytes)

(* Arbitration: the DMA engines win the bus over CPU traffic (an adaptor
   that loses the bus overruns its input FIFO); neither preempts a
   transfer in progress. *)
let dma_priority = 0
let cpu_priority = 5

let dma_read t ~bytes =
  Resource.use t.io_port ~priority:dma_priority
    ~duration:(dma_transaction_ns ~dir:`Read ~bytes)

let dma_write t ~bytes =
  Resource.use t.io_port ~priority:dma_priority
    ~duration:(dma_transaction_ns ~dir:`Write ~bytes)

(* The callback forms pass the priority already boxed, so a transaction
   does not allocate its option. *)
let dma_priority_opt = Some dma_priority

let dma_read_then t a ~bytes k =
  Resource.use_then ?priority:dma_priority_opt t.io_port a
    ~duration:(dma_transaction_ns ~dir:`Read ~bytes)
    k

let dma_write_then t a ~bytes k =
  Resource.use_then ?priority:dma_priority_opt t.io_port a
    ~duration:(dma_transaction_ns ~dir:`Write ~bytes)
    k

let cpu_access t ~bytes ~overhead_cycles =
  let duration = cycles_ns (overhead_cycles + words_of_bytes bytes) in
  Resource.use t.mem_port ~priority:cpu_priority ~duration

let pio_read_words t ~words =
  if words > 0 then
    Resource.use t.io_port ~duration:(cycles_ns (words * pio_read_cycles))

let pio_write_words t ~words =
  if words > 0 then
    Resource.use t.io_port ~duration:(cycles_ns (words * pio_write_cycles))

let max_dma_mbps ~dir ~burst =
  let words = words_of_bytes burst in
  float_of_int words /. float_of_int (words + overhead dir) *. peak_mbps

let busy_stats t = Resource.stats t.io_port
