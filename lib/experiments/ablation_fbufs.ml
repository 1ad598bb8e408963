open Osiris_sim
module Machine = Osiris_core.Machine
module Fbufs = Osiris_fbufs.Fbufs
module Cpu = Osiris_os.Cpu
module Vspace = Osiris_mem.Vspace
module Phys_mem = Osiris_mem.Phys_mem

let with_alloc f =
  let machine = Machine.ds5000_200 in
  let eng = Engine.create () in
  let mem =
    Phys_mem.create ~size:(32 * 1024 * 1024)
      ~page_size:machine.Machine.page_size ()
  in
  let vs = Vspace.create mem in
  let cpu = Cpu.create eng ~hz:machine.Machine.cpu_hz in
  let fb = Fbufs.create cpu vs in
  let result = ref None in
  Process.spawn eng ~name:"fbufs" (fun () -> result := Some (f eng cpu fb));
  Engine.run eng;
  Option.get !result

(* Mean per-transfer time once the path cache is warm. *)
let transfer_time ~cached ~domains =
  with_alloc (fun _eng _cpu fb ->
      (* Warm the cached pool for path 1. *)
      let warm = Fbufs.get fb ~path:1 in
      Fbufs.release fb warm;
      let stats = Osiris_util.Stats.create () in
      for _ = 1 to 16 do
        let f =
          if cached then Fbufs.get fb ~path:1
          else begin
            (* Exhaust the pool so get falls back to uncached. *)
            let hoard = List.init 4 (fun _ -> Fbufs.get fb ~path:1) in
            let u = Fbufs.get fb ~path:1 in
            List.iter (Fbufs.release fb) hoard;
            u
          end
        in
        let dt = Fbufs.transfer fb f ~domains in
        Osiris_util.Stats.add stats (Time.to_float_us dt);
        Fbufs.release fb f
      done;
      Osiris_util.Stats.mean stats)

let lru_evictions () =
  with_alloc (fun _eng _cpu fb ->
      (* Touch 20 distinct paths: 4 past capacity forces 4 evictions. *)
      for path = 1 to 20 do
        let f = Fbufs.get fb ~path in
        Fbufs.release fb f
      done;
      (Fbufs.stats fb).Fbufs.evictions)

let table () =
  let rows =
    List.map
      (fun domains ->
        let c = transfer_time ~cached:true ~domains in
        let u = transfer_time ~cached:false ~domains in
        [
          string_of_int domains;
          Printf.sprintf "%.0f" c;
          Printf.sprintf "%.0f" u;
          Printf.sprintf "%.1fx" (u /. c);
        ])
      [ 1; 2; 3 ]
  in
  let rows =
    rows
    @ [
        [ "LRU (20 paths, cache 16)"; "-"; "-";
          Printf.sprintf "%d evictions" (lru_evictions ()) ];
      ]
  in
  {
    Report.t_title =
      "3.1 ablation: fbuf cross-domain transfer, 16KB buffer (us)";
    header = [ "domain crossings"; "cached"; "uncached"; "ratio" ];
    rows;
    t_paper_note =
      "a cached fbuf (preallocated for one of the 16 hottest paths) \
       transfers an order of magnitude faster than an uncached one";
  }
