(* Tests for the TURBOchannel model: the paper's exact §2.5.1 numbers and
   the arbitration topologies. *)

open Osiris_sim
module Tc = Osiris_bus.Turbochannel

let test_paper_bounds () =
  let chk label expected dir burst =
    Alcotest.(check (float 0.5)) label expected (Tc.max_dma_mbps ~dir ~burst)
  in
  chk "44B read = 367" 366.7 `Read 44;
  chk "44B write = 463" 463.2 `Write 44;
  chk "88B read = 503" 502.9 `Read 88;
  chk "88B write = 587" 586.7 `Write 88

let test_transaction_times () =
  (* 44 bytes = 11 words; read = 13 + 11 = 24 cycles at 40ns. *)
  Alcotest.(check int) "44B read ns" 960
    (Tc.dma_transaction_ns ~dir:`Read ~bytes:44);
  Alcotest.(check int) "44B write ns" 760
    (Tc.dma_transaction_ns ~dir:`Write ~bytes:44);
  Alcotest.(check int) "cycle" 40 Tc.cycle_ns;
  Alcotest.(check (float 0.01)) "peak" 800.0 Tc.peak_mbps

let run_two eng f g =
  let t_f = ref 0 and t_g = ref 0 in
  Process.spawn eng ~name:"f" (fun () ->
      f ();
      t_f := Engine.now eng);
  Process.spawn eng ~name:"g" (fun () ->
      g ();
      t_g := Engine.now eng);
  Engine.run eng;
  (!t_f, !t_g)

let test_shared_bus_contention () =
  (* On the shared bus, a CPU access and a DMA serialize. *)
  let eng = Engine.create () in
  let bus = Tc.create eng Tc.Shared_bus in
  let t_dma, t_cpu =
    run_two eng
      (fun () -> Tc.dma_write bus ~bytes:44)
      (fun () -> Tc.cpu_access bus ~bytes:44 ~overhead_cycles:8)
  in
  Alcotest.(check int) "dma first" 760 t_dma;
  Alcotest.(check int) "cpu waits for dma" (760 + 760) t_cpu

let test_crossbar_concurrency () =
  (* On the crossbar, the same two transactions overlap. *)
  let eng = Engine.create () in
  let bus = Tc.create eng Tc.Crossbar in
  let t_dma, t_cpu =
    run_two eng
      (fun () -> Tc.dma_write bus ~bytes:44)
      (fun () -> Tc.cpu_access bus ~bytes:44 ~overhead_cycles:8)
  in
  Alcotest.(check int) "dma" 760 t_dma;
  Alcotest.(check int) "cpu concurrent" 760 t_cpu

let test_pio_costs () =
  let eng = Engine.create () in
  let bus = Tc.create eng Tc.Shared_bus in
  let t = ref 0 in
  Process.spawn eng ~name:"pio" (fun () ->
      Tc.pio_read_words bus ~words:10;
      t := Engine.now eng);
  Engine.run eng;
  (* 10 words x 15 cycles x 40ns *)
  Alcotest.(check int) "pio reads" 6000 !t

let dma_rate_matches_closed_form =
  QCheck.Test.make ~name:"bus: sustained rate = closed form" ~count:20
    QCheck.(pair (int_range 1 8) bool)
    (fun (cells, write) ->
      let burst = cells * 44 in
      let dir = if write then `Write else `Read in
      let eng = Engine.create () in
      let bus = Tc.create eng Tc.Shared_bus in
      let n = 500 in
      Process.spawn eng ~name:"dma" (fun () ->
          for _ = 1 to n do
            match dir with
            | `Read -> Tc.dma_read bus ~bytes:burst
            | `Write -> Tc.dma_write bus ~bytes:burst
          done);
      Engine.run eng;
      let measured =
        float_of_int (n * burst * 8) /. float_of_int (Engine.now eng) *. 1e3
      in
      abs_float (measured -. Tc.max_dma_mbps ~dir ~burst) < 1.0)

let suite =
  [
    Alcotest.test_case "paper 2.5.1 bounds" `Quick test_paper_bounds;
    Alcotest.test_case "transaction durations" `Quick test_transaction_times;
    Alcotest.test_case "shared bus serializes" `Quick test_shared_bus_contention;
    Alcotest.test_case "crossbar overlaps" `Quick test_crossbar_concurrency;
    Alcotest.test_case "pio word costs" `Quick test_pio_costs;
    QCheck_alcotest.to_alcotest dma_rate_matches_closed_form;
  ]
