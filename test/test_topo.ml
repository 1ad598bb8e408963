(* Fabric wiring plans: the generator's structural invariants, pinned
   over random specs (the properties ISSUE 9 names: port wiring is a
   bijection, every host pair has at least one path, equal-cost path
   sets have equal hop counts, equal specs expand identically). *)

module Spec = Osiris_topo.Spec
module Builder = Osiris_topo.Builder

(* ------------------------------------------------------------------ *)
(* Deterministic unit checks on the canonical shapes. *)

let test_star_shape () =
  let f = Builder.build (Spec.Star { hosts = 4 }) in
  Alcotest.(check int) "switches" 1 (Builder.nswitches f);
  Alcotest.(check int) "hosts" 4 (Builder.nhosts f);
  Alcotest.(check int) "trunks" 0 (Array.length f.Builder.trunks);
  Alcotest.(check int) "ports" 4 f.Builder.switch_nports.(0)

let test_chain_shape () =
  let f = Builder.build (Spec.Chain { hosts = 5 }) in
  Alcotest.(check int) "switches" 2 (Builder.nswitches f);
  Alcotest.(check int) "trunks" 1 (Array.length f.Builder.trunks);
  (* first ceil(5/2)=3 hosts on switch 0, the rest on switch 1 *)
  Alcotest.(check (list int)) "attachment switches" [ 0; 0; 0; 1; 1 ]
    (Array.to_list
       (Array.map (fun p -> p.Builder.pr_sw) f.Builder.hosts))

let test_fat_tree_counts () =
  let f = Builder.build (Spec.Fat_tree { k = 4; hosts_per_edge = 1 }) in
  Alcotest.(check int) "hosts" 8 (Builder.nhosts f);
  Alcotest.(check int) "switches" 20 (Builder.nswitches f);
  (* inter-pod pairs see (k/2)^2 = 4 equal-cost paths *)
  Alcotest.(check int) "inter-pod paths" 4
    (List.length (Builder.paths f ~src:0 ~dst:2));
  (* same-edge pairs (k=4, hosts_per_edge=2) collapse to one hop *)
  let g = Builder.build (Spec.Fat_tree { k = 4; hosts_per_edge = 2 }) in
  match Builder.paths g ~src:0 ~dst:1 with
  | [ [ hop ] ] ->
      Alcotest.(check int) "same-edge single switch" 0 hop.Builder.h_sw
  | ps ->
      Alcotest.failf "same-edge pair: expected one 1-hop path, got %d paths"
        (List.length ps)

let spec_to_string = function
  | Spec.Star { hosts } -> Printf.sprintf "star(%d)" hosts
  | Spec.Chain { hosts } -> Printf.sprintf "chain(%d)" hosts
  | Spec.Fat_tree { k; hosts_per_edge } ->
      Printf.sprintf "fat-tree(k=%d, %d hosts/edge)" k hosts_per_edge

let test_spec_validation () =
  let rejects s =
    match Spec.validate s with
    | () -> Alcotest.failf "accepted invalid spec %s" (spec_to_string s)
    | exception Invalid_argument _ -> ()
  in
  rejects (Spec.Star { hosts = 1 });
  rejects (Spec.Fat_tree { k = 5; hosts_per_edge = 1 });
  rejects (Spec.Fat_tree { k = 4; hosts_per_edge = 3 })

(* ------------------------------------------------------------------ *)
(* Random specs, kept small enough that whole-pair path enumeration
   stays cheap. *)

let spec_gen =
  let open QCheck.Gen in
  oneof
    [
      (2 -- 8 >|= fun hosts -> Spec.Star { hosts });
      (2 -- 8 >|= fun hosts -> Spec.Chain { hosts });
      ( pair (oneofl [ 4; 6 ]) (1 -- 2) >|= fun (k, hosts_per_edge) ->
        Spec.Fat_tree { k; hosts_per_edge } );
    ]

let spec_arb = QCheck.make ~print:spec_to_string spec_gen

(* Every switch port is used by exactly one occupant — host attachment
   or trunk endpoint — and every occupant's port exists. *)
let qcheck_wiring_bijection =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"port wiring is a bijection" spec_arb
       (fun spec ->
         let f = Builder.build spec in
         let occupants =
           Array.to_list f.Builder.hosts
           @ List.concat_map
               (fun t -> [ t.Builder.t_a; t.Builder.t_b ])
               (Array.to_list f.Builder.trunks)
         in
         let in_range { Builder.pr_sw; pr_port } =
           pr_sw >= 0
           && pr_sw < Builder.nswitches f
           && pr_port >= 0
           && pr_port < f.Builder.switch_nports.(pr_sw)
         in
         let distinct =
           List.length (List.sort_uniq compare occupants)
           = List.length occupants
         in
         let total_ports =
           Array.fold_left ( + ) 0 f.Builder.switch_nports
         in
         List.for_all in_range occupants
         && distinct
         && List.length occupants = total_ports))

(* Every ordered host pair has at least one path, and all of a pair's
   equal-cost paths have the same hop count. *)
let qcheck_paths_exist_equal_cost =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"every host pair: >=1 path, equal hop counts" spec_arb
       (fun spec ->
         let f = Builder.build spec in
         let nh = Builder.nhosts f in
         let ok = ref true in
         for src = 0 to nh - 1 do
           for dst = 0 to nh - 1 do
             if src <> dst then begin
               match Builder.paths f ~src ~dst with
               | [] -> ok := false
               | first :: rest ->
                   let len = List.length first in
                   if
                     len = 0
                     || not
                          (List.for_all
                             (fun p -> List.length p = len)
                             rest)
                   then ok := false
             end
           done
         done;
         !ok))

(* Equal specs expand to structurally identical fabrics (the contract
   instantiation's determinism rests on). *)
let qcheck_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"equal specs build equal fabrics"
       spec_arb (fun spec ->
         let a = Builder.build spec and b = Builder.build spec in
         a = b))

let suite =
  [
    Alcotest.test_case "star shape" `Quick test_star_shape;
    Alcotest.test_case "chain shape" `Quick test_chain_shape;
    Alcotest.test_case "fat-tree counts and path sets" `Quick
      test_fat_tree_counts;
    Alcotest.test_case "spec validation rejects bad dimensions" `Quick
      test_spec_validation;
    qcheck_wiring_bijection;
    qcheck_paths_exist_equal_cost;
    qcheck_deterministic;
  ]
