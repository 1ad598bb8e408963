(* Tests for CPU scheduling, interrupt dispatch and page wiring. *)

open Osiris_sim
module Cpu = Osiris_os.Cpu
module Irq = Osiris_os.Irq
module Wiring = Osiris_os.Wiring
module Vspace = Osiris_mem.Vspace
module Phys_mem = Osiris_mem.Phys_mem

let test_cpu_serializes () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    Process.spawn eng ~name:"t" (fun () ->
        Cpu.consume cpu 1000;
        done_at.(i) <- Engine.now eng)
  done;
  Engine.run eng;
  Alcotest.(check int) "first slice" 1000 done_at.(0);
  Alcotest.(check int) "second slice queued" 2000 done_at.(1)

let test_cpu_priorities () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let order = ref [] in
  Process.spawn eng ~name:"holder" (fun () -> Cpu.consume cpu 1000);
  Process.spawn eng ~name:"low" (fun () ->
      Process.sleep eng 10;
      Cpu.consume_prio cpu ~priority:15 100;
      order := "low" :: !order);
  Process.spawn eng ~name:"high" (fun () ->
      Process.sleep eng 20;
      Cpu.consume_prio cpu ~priority:5 100;
      order := "high" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "high first" [ "high"; "low" ]
    (List.rev !order)

let test_cpu_interrupt_preference () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let order = ref [] in
  Process.spawn eng ~name:"holder" (fun () -> Cpu.consume cpu 1000);
  Process.spawn eng ~name:"thread" (fun () ->
      Process.sleep eng 1;
      Cpu.consume cpu 100;
      order := "thread" :: !order);
  Process.spawn eng ~name:"irq" (fun () ->
      Process.sleep eng 2;
      Cpu.consume_interrupt cpu 50;
      order := "irq" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "interrupt ahead of thread"
    [ "irq"; "thread" ] (List.rev !order)

let test_cpu_memory_load_hook () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let charged = ref 0 in
  Cpu.set_memory_load cpu (fun slice -> charged := !charged + slice);
  Process.spawn eng ~name:"t" (fun () -> Cpu.consume cpu 12345);
  Engine.run eng;
  Alcotest.(check int) "hook saw the slice" 12345 !charged

let test_irq_dispatch_and_coalescing () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let irq = Irq.create eng ~cpu ~dispatch_cost:75_000 in
  let handled = ref 0 in
  Irq.register irq ~line:3 ~name:"rx" (fun () -> incr handled);
  (* Three asserts before the handler runs: coalesced into one. *)
  Irq.assert_line irq ~line:3;
  Irq.assert_line irq ~line:3;
  Irq.assert_line irq ~line:3;
  Engine.run eng;
  Alcotest.(check int) "one dispatch" 1 !handled;
  Alcotest.(check int) "asserts recorded" 3 (Irq.asserted irq);
  Alcotest.(check int) "dispatch cost charged" 75_000 (Engine.now eng);
  (* A later assert dispatches again. *)
  Irq.assert_line irq ~line:3;
  Engine.run eng;
  Alcotest.(check int) "second dispatch" 2 !handled

let test_irq_unregistered_line () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let irq = Irq.create eng ~cpu ~dispatch_cost:100 in
  Alcotest.(check bool) "unknown line rejected" true
    (try
       Irq.assert_line irq ~line:9;
       false
     with Invalid_argument _ -> true)

(* [set_handler] replaces a registered line's handler: the next
   dispatch runs the new one, at the same cost. A line must be
   registered before its handler can be replaced, and only once. *)
let test_irq_set_handler () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let irq = Irq.create eng ~cpu ~dispatch_cost:75_000 in
  let ran = ref [] in
  Irq.register irq ~line:3 ~name:"rx" (fun () -> ran := "old" :: !ran);
  Irq.set_handler irq ~line:3 (fun () -> ran := "new" :: !ran);
  Irq.assert_line irq ~line:3;
  Engine.run eng;
  Alcotest.(check (list string)) "the replacement ran" [ "new" ] !ran;
  Alcotest.(check int) "dispatch cost charged" 75_000 (Engine.now eng);
  Alcotest.check_raises "unregistered line"
    (Invalid_argument "Irq.set_handler: no handler registered") (fun () ->
      Irq.set_handler irq ~line:9 ignore);
  Alcotest.check_raises "a line registers once"
    (Invalid_argument "Irq.register: line already has a handler") (fun () ->
      Irq.register irq ~line:3 ~name:"again" ignore)

let test_wiring_policies () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  let mem = Phys_mem.create ~size:(1 lsl 20) ~page_size:4096 () in
  let vs = Vspace.create mem in
  let w =
    Wiring.create cpu Osiris_core.Machine.ds5000_200.Osiris_core.Machine.wiring
      Wiring.Mach_full
  in
  let mach_4 = Wiring.cost_of w ~pages:4 in
  Wiring.set_policy w Wiring.Low_level;
  let low_4 = Wiring.cost_of w ~pages:4 in
  Alcotest.(check bool) "Mach much slower" true (mach_4 > 10 * low_4);
  let v = Vspace.alloc vs ~len:(4 * 4096) in
  Process.spawn eng ~name:"t" (fun () ->
      Wiring.wire w vs ~vaddr:v ~len:(4 * 4096));
  Engine.run eng;
  Alcotest.(check int) "pages wired" 4 (Vspace.wired_pages vs);
  Alcotest.(check int) "time = cost_of" low_4 (Engine.now eng)

let test_domains () =
  let mem = Phys_mem.create ~size:(1 lsl 20) ~page_size:4096 () in
  let vs1 = Vspace.create mem and vs2 = Vspace.create mem in
  (* Separate address spaces: same vaddr can map different frames. *)
  let a1 = Vspace.alloc vs1 ~len:4096 and a2 = Vspace.alloc vs2 ~len:4096 in
  Alcotest.(check bool) "independent translations" true
    (Vspace.translate vs1 a1 <> Vspace.translate vs2 a2
     || a1 <> a2 (* extremely unlikely to collide, but allow *))

let suite =
  [
    Alcotest.test_case "cpu: serializes threads" `Quick test_cpu_serializes;
    Alcotest.test_case "cpu: priorities" `Quick test_cpu_priorities;
    Alcotest.test_case "cpu: interrupt priority" `Quick
      test_cpu_interrupt_preference;
    Alcotest.test_case "cpu: memory-load hook" `Quick test_cpu_memory_load_hook;
    Alcotest.test_case "irq: dispatch & coalescing" `Quick
      test_irq_dispatch_and_coalescing;
    Alcotest.test_case "irq: unknown line" `Quick test_irq_unregistered_line;
    Alcotest.test_case "wiring: policies & accounting" `Quick
      test_wiring_policies;
    Alcotest.test_case "domains" `Quick test_domains;
    Alcotest.test_case "irq: set_handler replaces a handler" `Quick
      test_irq_set_handler;
  ]
