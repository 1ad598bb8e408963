(* Tests for the fbuf allocator: cached pools, LRU, costs. *)

open Osiris_sim
module Fbufs = Osiris_fbufs.Fbufs
module Cpu = Osiris_os.Cpu
module Vspace = Osiris_mem.Vspace
module Phys_mem = Osiris_mem.Phys_mem

(* The allocator caches pools of four 16 KB buffers for 16 paths. *)
let setup () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(16 lsl 20) ~page_size:4096 () in
  let vs = Vspace.create mem in
  let cpu = Cpu.create eng ~hz:25_000_000 in
  (eng, Fbufs.create cpu vs)

(* Use each path once, in order, returning its buffer. *)
let touch fb paths =
  List.iter (fun p -> Fbufs.release fb (Fbufs.get fb ~path:p)) paths

let in_process eng f =
  let r = ref None in
  Process.spawn eng ~name:"t" (fun () -> r := Some (f ()));
  Engine.run eng;
  Option.get !r

let test_cached_pool_hits () =
  let eng, fb = setup () in
  in_process eng (fun () ->
      let f1 = Fbufs.get fb ~path:1 in
      Alcotest.(check bool) "first get cached" true (Fbufs.is_cached f1);
      let rest = List.init 3 (fun _ -> Fbufs.get fb ~path:1) in
      Alcotest.(check bool) "pool of 4" true (List.for_all Fbufs.is_cached rest);
      let f5 = Fbufs.get fb ~path:1 in
      Alcotest.(check bool) "pool exhausted: uncached" false
        (Fbufs.is_cached f5);
      Fbufs.release fb f1;
      let f6 = Fbufs.get fb ~path:1 in
      Alcotest.(check bool) "release replenishes" true (Fbufs.is_cached f6);
      let st = Fbufs.stats fb in
      Alcotest.(check int) "cached gets" 5 st.Fbufs.cached_gets;
      Alcotest.(check int) "uncached gets" 1 st.Fbufs.uncached_gets)

let test_cached_much_faster () =
  let eng, fb = setup () in
  in_process eng (fun () ->
      let c = Fbufs.get fb ~path:1 in
      let t_cached = Fbufs.transfer fb c ~domains:2 in
      Fbufs.release fb c;
      let held = List.init 4 (fun _ -> Fbufs.get fb ~path:1) in
      let u = Fbufs.get fb ~path:1 in
      Alcotest.(check bool) "uncached" false (Fbufs.is_cached u);
      let t_uncached = Fbufs.transfer fb u ~domains:2 in
      List.iter (Fbufs.release fb) held;
      Fbufs.release fb u;
      Alcotest.(check bool)
        (Printf.sprintf "order of magnitude: %d vs %d" t_cached t_uncached)
        true
        (t_uncached > 5 * t_cached))

let test_lru_eviction () =
  let eng, fb = setup () in
  in_process eng (fun () ->
      touch fb (List.init 16 (fun i -> i + 1));
      (* Touch 1 so 2 becomes the LRU, then add a seventeenth path. *)
      touch fb [ 1; 17 ];
      let cached = Fbufs.cached_paths fb in
      Alcotest.(check int) "16 paths cached" 16 (List.length cached);
      Alcotest.(check bool) "2 evicted" true (not (List.mem 2 cached));
      Alcotest.(check bool) "1 kept" true (List.mem 1 cached);
      Alcotest.(check int) "evictions" 1 (Fbufs.stats fb).Fbufs.evictions)

let test_release_after_eviction () =
  let eng, fb = setup () in
  in_process eng (fun () ->
      let f = Fbufs.get fb ~path:1 in
      (* Evict path 1's pool, the least recently used of 17, while we
         still hold one of its buffers. *)
      touch fb (List.init 16 (fun i -> i + 2));
      Alcotest.(check bool) "1 evicted" false
        (List.mem 1 (Fbufs.cached_paths fb));
      (* Releasing the orphan must not crash or corrupt the allocator. *)
      Fbufs.release fb f;
      let h = Fbufs.get fb ~path:17 in
      Alcotest.(check bool) "allocator still sane" true (Fbufs.is_cached h))

let suite =
  [
    Alcotest.test_case "cached pool hits and exhaustion" `Quick
      test_cached_pool_hits;
    Alcotest.test_case "cached ≫ uncached" `Quick test_cached_much_faster;
    Alcotest.test_case "16-path LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "release after eviction" `Quick
      test_release_after_eviction;
  ]
