open Effect
open Effect.Deep

exception Not_in_process
exception Process_failure of string * exn

type resumer = unit -> unit

(* A callback agent: at most one pending event, whose work is [k_next].
   Its timer and wake-up callbacks are built once, so a sleep costs the
   agent its engine handle and a wake-up one small closure more. *)
type agent = {
  eng : Engine.t;
  name : string;
  mutable k_next : unit -> unit;
  ring : unit -> unit; (* a sleep's timer *)
  resume_agent : resumer; (* a wake-up *)
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

(* The events a process costs, written once for fibers and callback
   agents alike. The continuation is a function and its argument: a
   fiber's is [resume] and its continuation, an agent's [run_agent] and
   the agent. *)

(* A wake-up: one zero-delay event running [f x]. *)
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
let run_agent a =
  try a.k_next () with exn -> raise (Process_failure (a.name, exn))

let agent eng ~name =
  let rec a =
    {
      eng;
      name;
      k_next = ignore;
      ring = (fun () -> wake eng run_agent a);
      resume_agent = (fun () -> hop eng run_agent a);
    }
  in
  a

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
  a.k_next <- k;
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
    a.k_next <- k;
    ignore
      (Engine.schedule a.eng ~delay:d a.ring
      [@osiris.alloc_ok "the timer event: its engine handle"])
  end
