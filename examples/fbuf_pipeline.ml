(* Fbufs end to end (§3.1): a microkernel-style delivery pipeline.

   In a microkernel, network data may traverse several protection domains
   on its way to the application: device driver -> user-level protocol
   server -> application. This example builds that pipeline twice over the
   public API — once delivering each message in a cached fbuf (the path is
   one of the 16 hottest, so its buffers are premapped end-to-end), once
   with uncached buffers that must be remapped at every boundary — and
   compares sustained delivery throughput. It also shows the path
   abstraction the VCI is bound to, and the LRU behaviour when more than
   16 paths are live.

   Run with: dune exec examples/fbuf_pipeline.exe *)

open Osiris_core
module Fbufs = Osiris_fbufs.Fbufs
module Path = Osiris_xkernel.Path
module Demux = Osiris_xkernel.Demux
module Cpu = Osiris_os.Cpu
module Vspace = Osiris_mem.Vspace
module Phys_mem = Osiris_mem.Phys_mem
module Engine = Osiris_sim.Engine
module Process = Osiris_sim.Process
module Time = Osiris_sim.Time

let machine = Machine.ds5000_200
let msg_size = 16 * 1024
let messages = 200

(* Deliver [messages] buffers through a 3-domain pipeline; [cached]
   selects whether the path's fbuf pool is allowed to exist. *)
let run_pipeline ~cached =
  let eng = Engine.create () in
  let mem =
    Phys_mem.create ~size:(64 lsl 20) ~page_size:machine.Machine.page_size ()
  in
  let cpu = Cpu.create eng ~hz:machine.Machine.cpu_hz in
  let kernel_vs = Vspace.create mem in
  let fb = Fbufs.create cpu kernel_vs in
  let demux = Demux.create () in
  let reg = Path.create_registry demux in
  let delivered = ref 0 and last_delivery = ref 0 in
  let path =
    Path.establish reg ~name:"video-feed"
      ~crossings:2 (* driver -> udp-server -> app *)
      ~handler:(fun _ msg ->
        incr delivered;
        Osiris_xkernel.Msg.dispose msg)
  in
  (* The "adaptor + driver": every 40 us a 16KB PDU lands in a buffer
     chosen by the early-demultiplexing decision, then crosses the path's
     domain boundaries. With a cached pool the get and both crossings are
     pointer work; otherwise pages are remapped at each boundary. *)
  Process.spawn eng ~name:"delivery" (fun () ->
      (* To show the uncached regime, exhaust the path's pool up front (as
         if its four buffers were all still held upstream). *)
      let hoard =
        if cached then []
        else List.init 4 (fun _ -> Fbufs.get fb ~path:path.Path.id)
      in
      ignore hoard;
      for _ = 1 to messages do
        Process.sleep eng (Time.us 40);
        let f = Fbufs.get fb ~path:path.Path.id in
        ignore (Fbufs.transfer fb f ~domains:path.Path.crossings);
        (* hand a message view to the path's handler *)
        let msg =
          Osiris_xkernel.Msg.create kernel_vs ~vaddr:(Fbufs.vaddr f)
            ~len:msg_size
        in
        ignore (Demux.deliver demux ~vci:path.Path.vci msg);
        Fbufs.release fb f;
        last_delivery := Engine.now eng
      done);
  (* The run leaves the clock at [until], long after the last message:
     the rate is measured to the end of the last delivery. *)
  Engine.run ~until:(Time.s 5) eng;
  ( !delivered,
    Osiris_experiments.Report.mbps
      ~bytes_count:(!delivered * msg_size)
      ~ns:!last_delivery,
    Fbufs.stats fb )

let () =
  let n_cached, mbps_cached, st_c = run_pipeline ~cached:true in
  let n_uncached, mbps_uncached, st_u = run_pipeline ~cached:false in
  Printf.printf
    "3-domain delivery pipeline (driver -> protocol server -> app), 16KB \
     messages:\n";
  Printf.printf "  cached fbufs:   %3d delivered, %6.1f Mbps (%d pool hits)\n"
    n_cached mbps_cached st_c.Fbufs.cached_gets;
  Printf.printf
    "  uncached fbufs: %3d delivered, %6.1f Mbps (%d allocations, %d \
     evictions)\n"
    n_uncached mbps_uncached st_u.Fbufs.uncached_gets st_u.Fbufs.evictions;
  Printf.printf
    "early demultiplexing lets the adaptor pick a premapped buffer, so the \
     cached path transfers at pointer cost\n";
  if mbps_cached < 1.5 *. mbps_uncached then exit 1
