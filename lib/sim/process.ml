open Effect
open Effect.Deep

exception Not_in_process
exception Process_failure of string * exn

type resumer = unit -> unit

(* A callback agent: at most one pending event, whose work is [k_next].
   It owns one handle for a sleep's timer and one for its wake-up, and
   re-arms them, so neither event allocates. *)
type step = { name : string; mutable k_next : unit -> unit }

type agent = {
  eng : Engine.t;
  step : step;
  timer : Engine.handle;
  resume_agent : resumer; (* re-arms the wake-up handle, due now *)
}

type _ Effect.t +=
  | Suspend : (resumer -> unit) -> unit Effect.t
  | Sleep : Time.t -> unit Effect.t

(* True exactly while a process body runs: set when the engine starts or
   continues a fiber, cleared when that fiber suspends or ends. [sleep]
   reads it to know it is inside a process without performing an effect
   (whose [Effect.Unhandled] is the check every suspension makes).
   Processes never nest, and the simulator runs on one domain. *)
let in_process = ref false

(* A fiber's wake-up: one zero-delay event running [f x]. *)
let hop eng f x =
  ignore
    (Engine.schedule eng ~delay:0 (fun () -> f x)
    [@osiris.alloc_ok "the wake-up event: one closure and one handle"])

(* A sleep's timer has fired. Written out, it schedules the hop above
   at this instant; when nothing else is queued here the hop would be
   the next dispatch anyway, so run [f x] now. *)
let wake eng f x =
  if Engine.skip_to eng (Engine.now eng) then f x else hop eng f x

let resume k =
  in_process := true;
  continue k ()

(* An agent's step as its event. The one handler that sees every
   exception: it re-raises it named, as a fiber's effect handler does,
   and swallows none. *)
let run_agent s =
  try s.k_next () with exn -> raise (Process_failure (s.name, exn))

(* The timer's callback is [wake] with the agent's own wake-up handle as
   the hop. *)
let agent eng ~name =
  let step = { name; k_next = ignore } in
  let wake_up = Engine.unarmed (fun () -> run_agent step) in
  let resume_agent () = Engine.reschedule eng ~delay:0 wake_up in
  let timer =
    Engine.unarmed (fun () ->
        if Engine.skip_to eng (Engine.now eng) then run_agent step
        else resume_agent ())
  in
  { eng; step; timer; resume_agent }

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
            | Sleep d ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    in_process := false;
                    ignore
                      (Engine.schedule eng ~delay:d (fun () ->
                           wake eng resume k)))
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    in_process := false;
                    let resumed = ref false in
                    register (fun () ->
                        if !resumed then
                          invalid_arg "Process: resumer invoked twice";
                        resumed := true;
                        hop eng resume k))
            | _ -> None);
      }
  in
  hop eng body ()

let suspend _eng register =
  try perform (Suspend register)
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
    (try perform (Sleep d) with Effect.Unhandled _ -> raise Not_in_process)
    [@osiris.alloc_ok
      "suspending path: the effect, its continuation and the timer \
       closure are the price of parking the fiber until another event \
       runs first"]

let yield eng = sleep eng 0

(* Callback agents: the same events, the continuation a plain
   function. *)

let await a k =
  a.step.k_next <- k;
  a.resume_agent

let start a k = await a k ()

let sleep_then a d k =
  if d < 0 then
    (invalid_arg "Process.sleep_then: negative duration"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  if Engine.skip_to a.eng (Engine.now a.eng + d) then
    (k ()
    [@osiris.alloc_ok
      "the continuation is the caller's next step: what it allocates is \
       that step's budget, checked where the step is"])
  else begin
    (* Armed first: a timer still queued raises with [k_next] intact. *)
    Engine.reschedule a.eng ~delay:d a.timer;
    a.step.k_next <- k
  end
