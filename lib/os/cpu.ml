open Osiris_sim

type t = {
  eng : Engine.t;
  hz : int;
  res : Resource.t;
  mutable mem_load : Time.t -> unit;
}

let create eng ~hz =
  if hz <= 0 then invalid_arg "Cpu.create: hz must be positive";
  { eng; hz; res = Resource.create eng ~capacity:1; mem_load = ignore }

let set_memory_load t hook = t.mem_load <- hook

let engine t = t.eng

let cycles_ns t cycles = ((cycles * 1_000_000_000) + t.hz - 1) / t.hz

let thread_priority = 10
let interrupt_priority = 0

let consume_with t ~priority duration =
  if duration > 0 then begin
    Resource.acquire ~priority t.res;
    Fun.protect
      ~finally:(fun () -> Resource.release t.res)
      (fun () ->
        Process.sleep t.eng duration;
        (* Background memory traffic stretches the slice while holding the
           CPU: the thread is stalled on its own cache misses. *)
        t.mem_load duration)
  end

let consume t duration = consume_with t ~priority:thread_priority duration
let consume_prio t ~priority duration = consume_with t ~priority duration

let consume_cycles t cycles = consume t (cycles_ns t cycles)

let consume_interrupt t duration =
  consume_with t ~priority:interrupt_priority duration

let with_held t f =
  Resource.acquire ~priority:thread_priority t.res;
  Fun.protect ~finally:(fun () -> Resource.release t.res) f

let busy_stats t = Resource.stats t.res
