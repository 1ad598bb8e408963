(* Structured trace subsystem.

   Events are typed records carrying the simulation time (nanoseconds),
   a category and a rendered message. Emitted events land in a bounded
   ring buffer (for post-mortem inspection from tests and debuggers) and
   flow to the active sinks:

     - stderr pretty-printer, per category, controlled by OSIRIS_TRACE
       ("all" or a comma list of category names) or enable/disable;
     - a JSONL file, one event object per line, controlled by
       OSIRIS_TRACE_JSON=<path> or [set_json_path] — this sink captures
       every category;
     - arbitrary callbacks installed with [on_event].

   The environment is consulted once, when this module is initialised,
   so explicit configuration always comes after it and tests can never
   race the env latch ([reset_for_testing] restores a clean,
   env-independent state). *)

type category = Board_tx | Board_rx | Driver | Protocol | Link | Fault

let category_name = function
  | Board_tx -> "board-tx"
  | Board_rx -> "board-rx"
  | Driver -> "driver"
  | Protocol -> "protocol"
  | Link -> "link"
  | Fault -> "fault"

let all = [ Board_tx; Board_rx; Driver; Protocol; Link; Fault ]

let index = function
  | Board_tx -> 0
  | Board_rx -> 1
  | Driver -> 2
  | Protocol -> 3
  | Link -> 4
  | Fault -> 5

type event = { seq : int; t_ns : int; cat : category; msg : string }

let ring_capacity = 1024
let ring : event option array = Array.make ring_capacity None
let ring_next = ref 0
let total = ref 0

(* Categories routed to the stderr pretty-printer. *)
let to_stderr = Array.make (List.length all) false
let json_oc : out_channel option ref = ref None
let sinks : (event -> unit) list ref = ref []

(* Per category: would any sink observe an event? Recomputed by every
   configuration change, so that [enabled] is one load. *)
let observed = Array.make (List.length all) false

let refresh () =
  let any = !json_oc <> None || !sinks <> [] in
  Array.iteri (fun i on -> observed.(i) <- on || any) to_stderr

let close_json () =
  match !json_oc with
  | None -> ()
  | Some oc ->
      json_oc := None;
      close_out_noerr oc;
      refresh ()

let open_json path =
  close_json ();
  json_oc := Some (open_out path);
  refresh ()

let set_stderr c on =
  to_stderr.(index c) <- on;
  refresh ()

let parse_spec spec enable1 =
  match spec with
  | "all" -> List.iter enable1 all
  | spec ->
      String.split_on_char ',' spec
      |> List.iter (fun name ->
             List.iter
               (fun c -> if category_name c = String.trim name then enable1 c)
               all)

let () =
  (match Sys.getenv_opt "OSIRIS_TRACE" with
  | None | Some "" -> ()
  | Some spec -> parse_spec spec (fun c -> set_stderr c true));
  match Sys.getenv_opt "OSIRIS_TRACE_JSON" with
  | None | Some "" -> ()
  | Some path -> open_json path

let enable c = set_stderr c true
let disable c = set_stderr c false

let set_json_path = function
  | Some path -> open_json path
  | None -> close_json ()

let on_event f =
  sinks := f :: !sinks;
  refresh ()

let enabled c = observed.(index c)

let events_emitted () = !total

let recent () =
  let out = ref [] in
  for i = 0 to ring_capacity - 1 do
    match ring.((!ring_next + i) mod ring_capacity) with
    | Some ev -> out := ev :: !out
    | None -> ()
  done;
  List.rev !out

let reset_for_testing () =
  Array.fill to_stderr 0 (Array.length to_stderr) false;
  close_json ();
  sinks := [];
  refresh ();
  Array.fill ring 0 ring_capacity None;
  ring_next := 0;
  total := 0

let event_json (ev : event) =
  Json.Assoc
    [
      ("seq", Json.Int ev.seq);
      ("t_ns", Json.Int ev.t_ns);
      ("t_us", Json.Float (float_of_int ev.t_ns /. 1e3));
      ("cat", Json.String (category_name ev.cat));
      ("msg", Json.String ev.msg);
    ]

let emit c ~now msg =
  if enabled c then begin
    incr total;
    let ev = { seq = !total; t_ns = now; cat = c; msg } in
    ring.(!ring_next) <- Some ev;
    ring_next := (!ring_next + 1) mod ring_capacity;
    if to_stderr.(index c) then
      Printf.eprintf "[%10.2fus %s] %s\n%!"
        (float_of_int ev.t_ns /. 1e3)
        (category_name c) msg;
    (match !json_oc with
    | Some oc ->
        Json.to_channel oc (event_json ev);
        output_char oc '\n';
        flush oc
    | None -> ());
    List.iter (fun f -> f ev) !sinks
  end

(* A private sink formatter for the disabled branch: ikfprintf needs a
   formatter but must not thread the shared Format.str_formatter (whose
   buffer other code may be using concurrently). *)
let null_formatter = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let emitf c ~now fmt =
  if enabled c then Format.kasprintf (fun msg -> emit c ~now msg) fmt
  else Format.ikfprintf (fun _ -> ()) null_formatter fmt
