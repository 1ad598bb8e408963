open Osiris_sim

type line_state = {
  name : string;
  mutable handler : unit -> unit;
  mutable pending : bool;
}

type t = {
  eng : Engine.t;
  cpu : Cpu.t;
  dispatch_cost : Time.t;
  lines : (int, line_state) Hashtbl.t;
  mutable total : int;
  mutable asserts : int;
}

let create eng ~cpu ~dispatch_cost =
  { eng; cpu; dispatch_cost; lines = Hashtbl.create 8; total = 0; asserts = 0 }

let register t ~line ~name handler =
  if Hashtbl.mem t.lines line then
    invalid_arg "Irq.register: line already has a handler";
  Hashtbl.replace t.lines line
    { name; handler; pending = false }

let set_handler t ~line handler =
  match Hashtbl.find_opt t.lines line with
  | None -> invalid_arg "Irq.set_handler: no handler registered"
  | Some st -> st.handler <- handler

let assert_line t ~line =
  match Hashtbl.find_opt t.lines line with
  | None -> invalid_arg "Irq.assert_line: no handler registered"
  | Some st ->
      t.asserts <- t.asserts + 1;
      if not st.pending then begin
        st.pending <- true;
        Process.spawn t.eng ~name:("irq:" ^ st.name) (fun () ->
            Cpu.consume_interrupt t.cpu t.dispatch_cost;
            st.pending <- false;
            t.total <- t.total + 1;
            st.handler ())
      end

let count t = t.total

let asserted t = t.asserts
