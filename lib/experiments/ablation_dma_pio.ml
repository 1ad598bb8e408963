open Osiris_sim
module Machine = Osiris_core.Machine
module Tc = Osiris_bus.Turbochannel
module Cache = Osiris_cache.Data_cache
module Phys_mem = Osiris_mem.Phys_mem

let block = 16 * 1024

(* Run [f] in a process and return the simulated ns it took. *)
let timed f =
  let eng = Engine.create () in
  let machine, body = f eng in
  ignore machine;
  let finished = ref 0 in
  Process.spawn eng ~name:"probe" (fun () ->
      body ();
      finished := Engine.now eng);
  Engine.run eng;
  !finished

let rate_mbps ns = Report.mbps ~bytes_count:block ~ns

(* DMA of one block into memory (single-cell transactions). *)
let dma_in machine =
  timed (fun eng ->
      let bus = Tc.create eng machine.Machine.bus in
      ( machine,
        fun () ->
          let remaining = ref block in
          while !remaining > 0 do
            let chunk = Int.min 44 !remaining in
            Tc.dma_write bus ~bytes:chunk;
            remaining := !remaining - chunk
          done ))

(* DMA then CPU read of the block through the cache. *)
let dma_then_read machine =
  timed (fun eng ->
      let mem =
        Phys_mem.create ~size:(1 lsl 20)
          ~page_size:machine.Machine.page_size ()
      in
      let bus = Tc.create eng machine.Machine.bus in
      let cache = Cache.create eng ~mem ~bus machine.Machine.cache in
      ( machine,
        fun () ->
          let remaining = ref block in
          while !remaining > 0 do
            let chunk = Int.min 44 !remaining in
            Tc.dma_write bus ~bytes:chunk;
            Cache.dma_wrote cache ~addr:(block - !remaining) ~len:chunk;
            remaining := !remaining - chunk
          done;
          ignore (Cache.read cache ~addr:0 ~len:block) ))

(* PIO: CPU reads the adaptor word by word and writes the app buffer. *)
let pio_in machine =
  timed (fun eng ->
      let mem =
        Phys_mem.create ~size:(1 lsl 20)
          ~page_size:machine.Machine.page_size ()
      in
      let bus = Tc.create eng machine.Machine.bus in
      let cache = Cache.create eng ~mem ~bus machine.Machine.cache in
      ( machine,
        fun () ->
          Tc.pio_read_words bus ~words:(block / 4);
          (* store to the application buffer through the cache *)
          Cache.write cache ~addr:0 ~src:(Bytes.create block) ))

(* Re-read after PIO: the data is still cached. *)
let read_after_pio machine =
  timed (fun eng ->
      let mem =
        Phys_mem.create ~size:(1 lsl 20)
          ~page_size:machine.Machine.page_size ()
      in
      let bus = Tc.create eng machine.Machine.bus in
      let cache = Cache.create eng ~mem ~bus machine.Machine.cache in
      ( machine,
        fun () ->
          Cache.write cache ~addr:0 ~src:(Bytes.create block);
          ignore (Cache.read cache ~addr:0 ~len:block) ))

let table () =
  let rows =
    List.map
      (fun machine ->
        [
          machine.Machine.name;
          Printf.sprintf "%.0f" (rate_mbps (dma_in machine));
          Printf.sprintf "%.0f" (rate_mbps (dma_then_read machine));
          Printf.sprintf "%.0f" (rate_mbps (pio_in machine));
          Printf.sprintf "%.0f" (rate_mbps (read_after_pio machine));
        ])
      [ Machine.ds5000_200; Machine.dec3000_600 ]
  in
  {
    Report.t_title =
      "2.7 ablation: DMA vs PIO, application-access rates for 16KB (Mbps)";
    header =
      [ "machine"; "DMA in"; "DMA + CPU read"; "PIO in"; "read after PIO" ];
    rows;
    t_paper_note =
      "on DEC workstations word reads across the TURBOchannel are so slow \
       that DMA wins even counting the post-DMA cache misses; on the Alpha \
       DMA updates the cache and the gap widens";
  }
