(* Bench harness: regenerates every table and figure of the paper from the
   simulation, printed in a stable textual form (see EXPERIMENTS.md for the
   paper-vs-measured record).

   Every mode except `list` additionally writes the whole run — experiment
   tables/figures and a final metrics snapshot — as a machine-readable
   BENCH.json (path overridable with OSIRIS_BENCH_JSON). Every value in it
   is simulated; the simulator's own speed is perfbench's to measure.

   Usage:
     dune exec bench/main.exe            # everything (slow: full figures)
     dune exec bench/main.exe quick      # tables + ablations only
     dune exec bench/main.exe <id>       # one experiment
     dune exec bench/main.exe list       # every experiment id *)

module Registry = Osiris_experiments.Registry
module Report = Osiris_experiments.Report
module Json = Osiris_obs.Json

(* Run, print, and collect each experiment's result for BENCH.json. *)
let run_reproduction entries =
  List.map
    (fun (e : Registry.entry) ->
      Printf.printf "\n### %s — %s\n%!" e.Registry.id e.Registry.description;
      let r = Registry.eval e in
      Registry.print_result r;
      (e.Registry.id, e.Registry.description, Registry.result_json r))
    entries

let write_bench_json ~mode ~experiments =
  let path =
    match Sys.getenv_opt "OSIRIS_BENCH_JSON" with
    | Some p when p <> "" -> p
    | _ -> "BENCH.json"
  in
  let doc = Report.bench_json ~mode ~experiments in
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
  let run entries =
    write_bench_json ~mode ~experiments:(run_reproduction entries)
  in
  match mode with
  | "list" ->
      List.iter
        (fun (e : Registry.entry) ->
          Printf.printf "%-24s %s\n" e.Registry.id e.Registry.description)
        Registry.all
  | "quick" -> run Registry.quick
  | "all" -> run Registry.all
  | id -> (
      match Registry.find id with
      | Some e -> run [ e ]
      | None ->
          Printf.eprintf "unknown experiment %S; try `list`\n" id;
          exit 1)
