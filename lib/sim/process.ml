open Effect
open Effect.Deep

exception Not_in_process
exception Process_failure of string * exn

type resumer = unit -> unit

type _ Effect.t +=
  | Suspend : ((resumer -> unit) * Engine.t) -> unit Effect.t
  | Sleep : Engine.t * Time.t -> unit Effect.t

(* True exactly while a process body runs: set when the engine starts or
   continues a fiber, cleared when that fiber suspends or ends. [sleep]
   reads it to know it is inside a process without performing an effect
   (whose [Effect.Unhandled] is the check every suspension makes).
   Processes never nest, and the simulator runs on one domain. *)
let in_process = ref false

let resume k =
  in_process := true;
  continue k ()

(* A sleep's timer. The hop that [suspend]'s resumer would schedule is
   a callback at the current instant; when nothing else is queued here
   it is the next dispatch anyway, so continue the fiber now. *)
let wake eng k =
  if Engine.skip_to eng (Engine.now eng) then resume k
  else ignore (Engine.schedule eng ~delay:0 (fun () -> resume k))

let spawn eng ?(name = "anon") f =
  let body () =
    in_process := true;
    match_with f ()
      {
        retc = (fun () -> in_process := false);
        exnc =
          (fun exn ->
            in_process := false;
            raise (Process_failure (name, exn)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sleep (eng', d) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    in_process := false;
                    ignore
                      (Engine.schedule eng' ~delay:d (fun () -> wake eng' k)))
            | Suspend (register, eng') ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    in_process := false;
                    let resumed = ref false in
                    let resumer () =
                      if !resumed then
                        invalid_arg "Process: resumer invoked twice";
                      resumed := true;
                      ignore
                        (Engine.schedule eng' ~delay:0 (fun () -> resume k))
                    in
                    register resumer)
            | _ -> None);
      }
  in
  ignore (Engine.schedule eng ~delay:0 body)

let suspend eng register =
  try perform (Suspend (register, eng))
  with Effect.Unhandled _ -> raise Not_in_process

(* Written out, a sleep is a timer at [now + d] whose dispatch
   schedules the resume hop at that instant. When the timer would be
   the engine's next dispatch (and so the hop after it), both are
   skipped: the clock moves and the process runs on. *)
let sleep eng d =
  if d < 0 then
    (invalid_arg "Process.sleep: negative duration"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  if not (!in_process && Engine.skip_to eng (Engine.now eng + d)) then
    (try perform (Sleep (eng, d))
     with Effect.Unhandled _ -> raise Not_in_process)
    [@osiris.alloc_ok
      "suspending path: the effect, its continuation and the timer \
       closure are the price of parking the fiber until another event \
       runs first"]

let yield eng = sleep eng 0
