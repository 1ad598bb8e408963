module Engine = Osiris_sim.Engine
module Rng = Osiris_util.Rng

type checks = { check : unit -> string list; at_end : unit -> string list }

type scenario = Engine.t -> checks

type failure = {
  schedule : Schedule.t;
  violations : string list;
  at : [ `Choice_point of int | `End ];
}

let pp_failure fmt f =
  Format.fprintf fmt "@[<v>schedule %s (%s):@,%a@]" (Schedule.to_string f.schedule)
    (match f.at with
    | `Choice_point k -> Printf.sprintf "choice point %d" k
    | `End -> "at end")
    (Format.pp_print_list Format.pp_print_string)
    f.violations

(* A violation found at a choice point aborts the run from inside the
   engine chooser; [trace] is (pick, candidate-count) pairs, newest
   first, for the choice points already taken. *)
exception Violation_found of string list

(* [decide k ~count] picks the callback index for choice point [k]. *)
let run_traced ?(max_events = 2000) ~decide scenario =
  let eng = Engine.create () in
  let checks = scenario eng in
  let trace = ref [] in
  Engine.set_chooser eng
    (Some
       (fun ~now:_ ~count ->
         (match checks.check () with
         | [] -> ()
         | vs -> raise (Violation_found vs));
         let k = List.length !trace in
         let pick = decide k ~count in
         let pick = if pick < 0 || pick >= count then 0 else pick in
         trace := (pick, count) :: !trace;
         pick));
  let schedule () = List.rev_map fst !trace in
  match Engine.run ~max_events eng with
  | () -> (
      let trace = List.rev !trace in
      match checks.at_end () with
      | [] -> (trace, None)
      | vs ->
          (trace, Some { schedule = List.map fst trace; violations = vs; at = `End }))
  | exception Violation_found vs ->
      let at = `Choice_point (List.length !trace) in
      (List.rev !trace, Some { schedule = schedule (); violations = vs; at })

let decide_prefix prefix k ~count:_ =
  match List.nth_opt prefix k with Some p -> p | None -> 0

let replay scenario schedule =
  snd (run_traced ~decide:(decide_prefix schedule) scenario)

let take n l = List.filteri (fun i _ -> i < n) l

let dfs ?(max_depth = 12) ?(max_runs = 4096) ?max_events scenario =
  let runs = ref 0 in
  let result = ref None in
  let stack = ref [ [] ] in
  while !result = None && !stack <> [] && !runs < max_runs do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        incr runs;
        let trace, failure =
          run_traced ?max_events ~decide:(decide_prefix prefix) scenario
        in
        (match failure with
        | Some f -> result := Some f
        | None ->
            (* Branch on every choice point this run reached beyond the
               prefix (it followed FIFO there), newest alternatives on
               top so the search goes depth-first. *)
            let picks = List.map fst trace in
            let base = List.length prefix in
            let horizon = Int.min (List.length trace) max_depth in
            for k = base to horizon - 1 do
              let count = snd (List.nth trace k) in
              for alt = 1 to count - 1 do
                stack := (take k picks @ [ alt ]) :: !stack
              done
            done)
  done;
  (!result, !runs)

let random_walks ~seed ~runs ?max_events scenario =
  let rng = Rng.create ~seed in
  let result = ref None in
  let executed = ref 0 in
  while !result = None && !executed < runs do
    incr executed;
    let _, failure =
      run_traced ?max_events ~decide:(fun _ ~count -> Rng.int rng count) scenario
    in
    match failure with Some f -> result := Some f | None -> ()
  done;
  (!result, !executed)
