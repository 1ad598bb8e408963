(* Bench harness: regenerates every table and figure of the paper from the
   simulation (printed in a stable textual form; see EXPERIMENTS.md for the
   paper-vs-measured record), then runs Bechamel micro-benchmarks of the
   simulator's hot data structures — one group per reproduced result, so
   both the reproduction and the implementation's own performance are
   exercised by `dune exec bench/main.exe`.

   Every mode except `list` additionally writes the whole run — experiment
   tables/figures, micro-benchmark estimates and a final metrics snapshot —
   as a machine-readable BENCH.json (path overridable with
   OSIRIS_BENCH_JSON).

   Usage:
     dune exec bench/main.exe            # everything (slow: full figures)
     dune exec bench/main.exe quick      # tables + ablations only
     dune exec bench/main.exe <id>       # one experiment (see `list`)
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks only
     dune exec bench/main.exe -- --list  # schema version + figure ids *)

open Bechamel
open Toolkit
module Registry = Osiris_experiments.Registry
module Report = Osiris_experiments.Report
module Json = Osiris_obs.Json

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot paths underneath each result.  *)

module Micro = struct
  module Desc_queue = Osiris_board.Desc_queue
  module Desc = Osiris_board.Desc
  module Sar = Osiris_atm.Sar
  module Cell = Osiris_atm.Cell
  module Engine = Osiris_sim.Engine
  module Process = Osiris_sim.Process

  (* table1 rests on engine event dispatch. *)
  let bench_engine =
    Test.make ~name:"table1:engine-event"
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           for _ = 1 to 64 do
             ignore (Engine.schedule eng ~delay:10 (fun () -> ()))
           done;
           Engine.run eng))

  (* the engine_speed figure rests on the event queue itself: a
     self-rescheduling timer spread from 1 ns to 30 ms, without the
     datapath around it. *)
  let bench_dispatch =
    Test.make ~name:"engine_speed:dispatch-4k"
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           let n = ref 0 in
           let rec tick d () =
             incr n;
             if !n < 4096 then ignore (Engine.schedule eng ~delay:d (tick d))
           in
           List.iter
             (fun d -> ignore (Engine.schedule eng ~delay:d (tick d)))
             [ 1; 3; 10; 123; 1_000; 50_000; 1_000_000; 30_000_000 ];
           Engine.run eng))

  (* figures 2/3 rest on per-cell reassembly decisions. *)
  let bench_sar =
    let pdu = Bytes.make 4096 'x' in
    let cells = Array.of_list (Sar.segment ~vci:1 ~nlinks:4 pdu) in
    Test.make ~name:"figure2:sar-reassemble-4KB"
      (Staged.stage (fun () ->
           let sar = Sar.create (Sar.Per_link 4) ~max_cells:256 in
           Array.iter
             (fun (c : Cell.t) ->
               ignore (Sar.push sar ~link:(c.Cell.seq mod 4) c))
             cells))

  (* figure 4 rests on descriptor-queue operations. *)
  let bench_queue =
    Test.make ~name:"figure4:desc-queue-op"
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           let q =
             Desc_queue.create eng ~size:64
               ~direction:Desc_queue.Host_to_board
               ~locking:Desc_queue.Lock_free ~hooks:Desc_queue.free_hooks ()
           in
           (* The board side as the board's agent calls it: with free
              hooks it completes inline. *)
           let board = Process.agent eng ~name:"board" in
           Process.spawn eng ~name:"b" (fun () ->
               for i = 1 to 32 do
                 ignore
                   (Desc_queue.host_enqueue q
                      (Desc.v ~addr:(i * 4096) ~len:64 ()));
                 Desc_queue.board_dequeue_then q board ignore
               done);
           Engine.run eng))

  (* the checksum/CRC paths behind the UDP-CS and §2.3 results. *)
  let bench_checksum =
    let b = Bytes.make 16384 'y' in
    Test.make ~name:"udp-cs:checksum-16KB"
      (Staged.stage (fun () ->
           ignore (Osiris_util.Checksum.compute b ~off:0 ~len:16384)))

  let bench_crc =
    let b = Bytes.make 16384 'z' in
    Test.make ~name:"sar:crc32-16KB"
      (Staged.stage (fun () ->
           ignore (Osiris_util.Crc32.compute b ~off:0 ~len:16384)))

  (* cell wire codec behind every link transfer. *)
  let bench_cell =
    let c =
      Cell.make ~vci:9 ~seq:3 ~eom:false ~last_of_pdu:false
        (Bytes.make Cell.data_size 'c')
    in
    Test.make ~name:"link:cell-serialize-parse"
      (Staged.stage (fun () ->
           match Cell.parse (Cell.serialize c) with
           | Ok _ -> ()
           | Error e -> failwith e))

  (* the fragmentation machinery behind 2.2 *)
  let bench_pbufs =
    let mem =
      Osiris_mem.Phys_mem.create
        ~scramble:(Osiris_util.Rng.create ~seed:1)
        ~size:(16 lsl 20) ~page_size:4096 ()
    in
    let vs = Osiris_mem.Vspace.create mem in
    let v = Osiris_mem.Vspace.alloc vs ~len:(16 * 1024) in
    Test.make ~name:"2.2:phys-buffers-16KB"
      (Staged.stage (fun () ->
           ignore (Osiris_mem.Vspace.phys_buffers vs ~vaddr:v ~len:(16 * 1024))))

  (* ip fragmentation images behind figures 2/3's generator *)
  let bench_ip_frag =
    let payload = Bytes.make 16384 'f' in
    Test.make ~name:"figure3:ip-fragment-16KB"
      (Staged.stage (fun () ->
           ignore
             (Osiris_proto.Ip.fragment_images Osiris_proto.Ip.default_config
                ~page_size:4096 ~src:1l ~dst:2l ~proto:17 payload)))

  let all =
    Test.make_grouped ~name:"micro" ~fmt:"%s %s"
      [ bench_engine; bench_dispatch; bench_sar; bench_queue;
        bench_checksum; bench_crc; bench_cell; bench_pbufs; bench_ip_frag ]

  (* Print the estimates and return them as [(name, ns_per_run)]. *)
  let run () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances all in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Printf.printf "\n%s\nBechamel micro-benchmarks (monotonic clock)\n%s\n"
      (String.make 72 '-') (String.make 72 '-');
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
    |> List.map (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some (t :: _) ->
               Printf.printf "%-40s %12.1f ns/run\n" name t;
               (name, Some t)
           | _ ->
               Printf.printf "%-40s %12s\n" name "n/a";
               (name, None))
end

(* Run, print, and collect each experiment's result for BENCH.json. *)
let run_reproduction entries =
  List.map
    (fun (e : Registry.entry) ->
      Printf.printf "\n### %s — %s\n%!" e.Registry.id e.Registry.description;
      let r = Registry.eval e in
      Registry.print_result r;
      (e.Registry.id, e.Registry.description, Registry.result_json r))
    entries

let write_bench_json ~mode ~experiments ~micro =
  let path =
    match Sys.getenv_opt "OSIRIS_BENCH_JSON" with
    | Some p when p <> "" -> p
    | _ -> "BENCH.json"
  in
  let doc = Report.bench_json ~mode ~experiments ~micro in
  match open_out path with
  | oc ->
      Json.to_channel oc doc;
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n" path
  | exception Sys_error e ->
      Printf.eprintf "cannot write BENCH.json: %s\n" e;
      exit 1

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match mode with
  | "--list" ->
      (* machine-oriented variant of `list`: leads with the BENCH.json
         schema tag so CI can pin against it, then one line per entry. *)
      Printf.printf "schema %s\n" Report.schema;
      List.iter
        (fun (e : Registry.entry) ->
          Printf.printf "%-24s %s\n" e.Registry.id e.Registry.description)
        Registry.all
  | "list" ->
      List.iter
        (fun (e : Registry.entry) ->
          Printf.printf "%-24s %s\n" e.Registry.id e.Registry.description)
        Registry.all
  | "micro" ->
      let micro = Micro.run () in
      write_bench_json ~mode ~experiments:[] ~micro
  | "quick" ->
      let experiments = run_reproduction Registry.quick in
      let micro = Micro.run () in
      write_bench_json ~mode ~experiments ~micro
  | "all" ->
      let experiments = run_reproduction Registry.all in
      let micro = Micro.run () in
      write_bench_json ~mode ~experiments ~micro
  | id -> (
      match Registry.find id with
      | Some e ->
          let experiments = run_reproduction [ e ] in
          write_bench_json ~mode ~experiments ~micro:[]
      | None ->
          Printf.eprintf "unknown experiment %S; try `list`\n" id;
          exit 1)
