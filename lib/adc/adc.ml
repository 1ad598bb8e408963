module Host = Osiris_core.Host
module Driver = Osiris_core.Driver
module Machine = Osiris_core.Machine
module Board = Osiris_board.Board
module Desc = Osiris_board.Desc
module Desc_queue = Osiris_board.Desc_queue
module Vspace = Osiris_mem.Vspace
module Pbuf = Osiris_mem.Pbuf
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux

type t = {
  vs : Vspace.t;
  channel : Board.channel;
  driver : Driver.t;
  demux : Demux.t;
  mutable allowed : Pbuf.t list;
}

let refresh_allowed t =
  Board.set_allowed_pages t.channel (Some t.allowed)

let open_ (host : Host.t) ?(priority = 1) ?cpu_priority () =
  let vs = Vspace.create host.Host.mem in
  let channel = Board.open_channel host.Host.board ~priority () in
  let demux = Demux.create () in
  let machine = host.Host.machine in
  let driver =
    Driver.create ~cpu:host.Host.cpu ~cache:host.Host.cache
      ~wiring:host.Host.wiring ~board:host.Host.board ~channel ~vs
      ~costs:machine.Machine.driver_costs ~demux ~invalidation:Driver.Lazy
      ~rx_buffer_size:machine.Machine.rx_buffer_size
      ~rx_pool_buffers:(machine.Machine.rx_pool_buffers / 2)
      ~contiguous_buffers:true ?cpu_priority ()
  in
  Host.register_channel host channel driver;
  Driver.start driver;
  let t =
    { vs; channel; driver; demux;
      allowed = Driver.buffer_regions driver }
  in
  refresh_allowed t;
  t

let vspace t = t.vs
let channel t = t.channel
let demux t = t.demux

let authorize t msg =
  t.allowed <- Msg.pbufs msg @ t.allowed;
  refresh_allowed t

let authorize_region t ~vaddr ~len =
  t.allowed <- Vspace.phys_buffers t.vs ~vaddr ~len @ t.allowed;
  refresh_allowed t

let alloc_msg t ~len () =
  let msg = Msg.alloc t.vs ~len () in
  authorize t msg;
  msg

let send t ~vci msg =
  (* Header pushes allocate new pages after [alloc_msg]'s authorization;
     cover whatever the message spans now. *)
  List.iter
    (fun (s : Msg.seg) -> authorize_region t ~vaddr:s.Msg.vaddr ~len:s.Msg.len)
    (Msg.segs msg);
  Driver.send t.driver ~vci msg

let send_unauthorized t ~vci ~len =
  let vaddr = Vspace.alloc t.vs ~len in
  let pbufs = Vspace.phys_buffers t.vs ~vaddr ~len in
  let descs = Desc.chain_of_pbufs ~vci pbufs in
  List.iter
    (fun d -> ignore (Desc_queue.host_enqueue (Board.tx_queue t.channel) d))
    descs
