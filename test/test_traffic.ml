(* The CDF-driven workload generator: inverse-transform sampling must be
   monotone, empirical means must converge to the analytic mean, and
   the connection-matrix generator must emit well-formed, sorted flow
   lists. *)

module Cdf = Osiris_traffic.Cdf
module Matrix = Osiris_traffic.Matrix
module Rng = Osiris_util.Rng
module Time = Osiris_sim.Time

(* The qcheck oracle: a distribution's expectation is the integral of
   its inverse CDF over [0, 1]. The midpoint rule is exact on a linear
   piece, so a two-point CDF's mean comes out exactly. *)
let mean c =
  let n = 100_000 in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. Cdf.quantile c ((float_of_int i +. 0.5) /. float_of_int n)
  done;
  !acc /. float_of_int n

let uniform ~lo ~hi =
  Cdf.of_points [ (float_of_int lo, 0.0); (float_of_int hi, 1.0) ]

(* A hair's width of support keeps the x axis strictly increasing. *)
let fixed b =
  Cdf.of_points [ (float_of_int b, 0.0); (float_of_int b +. 1e-6, 1.0) ]

(* --- unit coverage ------------------------------------------------ *)

let test_of_points_validation () =
  let bad what pts =
    match Cdf.of_points pts with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  bad "single point" [ (1.0, 0.0) ];
  bad "p0 <> 0" [ (1.0, 0.1); (2.0, 1.0) ];
  bad "pn <> 1" [ (1.0, 0.0); (2.0, 0.9) ];
  bad "x not increasing" [ (2.0, 0.0); (1.0, 1.0) ];
  bad "p decreasing" [ (1.0, 0.0); (2.0, 0.5); (3.0, 0.4); (4.0, 1.0) ];
  ignore (Cdf.of_points [ (1.0, 0.0); (10.0, 1.0) ])

let test_named_cdfs () =
  Alcotest.(check bool) "mean positive" true (mean Cdf.websearch > 0.)

let test_quantile_endpoints_and_clamp () =
  let c = uniform ~lo:100 ~hi:200 in
  Alcotest.(check (float 1e-6)) "q(0)" 100.0 (Cdf.quantile c 0.0);
  Alcotest.(check (float 1e-6)) "q(1)" 200.0 (Cdf.quantile c 1.0);
  Alcotest.(check (float 1e-6)) "clamp low" 100.0 (Cdf.quantile c (-0.5));
  Alcotest.(check (float 1e-6)) "clamp high" 200.0 (Cdf.quantile c 2.0);
  Alcotest.(check (float 1e-6)) "uniform mean" 150.0 (mean c)

let test_scale_clamps () =
  let c = Cdf.scale Cdf.websearch ~factor:1e-4 ~min_bytes:44 ~max_bytes:4096 in
  Alcotest.(check bool) "min" true (Cdf.quantile c 0.0 >= 44.0);
  Alcotest.(check bool) "max" true (Cdf.quantile c 1.0 <= 4096.0 +. 16.0);
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let s = Cdf.sample c rng in
    if s < 1 || s > 4200 then Alcotest.failf "sample %d out of range" s
  done

let test_pair_burst () =
  let rng = Rng.create ~seed:42 in
  let fl =
    Matrix.pair_burst rng ~src:1 ~dst:0 ~flows:500 ~cdf:Cdf.websearch
      ~window:(Time.ms 10)
  in
  Alcotest.(check int) "count" 500 (List.length fl);
  let sorted = ref true and prev = ref Time.zero in
  List.iter
    (fun f ->
      if f.Matrix.f_src <> 1 || f.Matrix.f_dst <> 0 then
        Alcotest.fail "wrong endpoints";
      if f.Matrix.f_bytes < 1 then Alcotest.fail "empty flow";
      if f.Matrix.f_start < !prev then sorted := false;
      prev := f.Matrix.f_start;
      if f.Matrix.f_start < Time.zero || f.Matrix.f_start > Time.ms 10 then
        Alcotest.fail "start outside window")
    fl;
  Alcotest.(check bool) "sorted by start" true !sorted;
  Alcotest.(check bool) "total bytes" true (Matrix.total_bytes fl > 0);
  match Matrix.pair_burst rng ~src:3 ~dst:3 ~flows:1 ~cdf:Cdf.websearch
          ~window:Time.zero with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self-pair accepted"

(* --- qcheck ------------------------------------------------------- *)

let named_arb =
  QCheck.make ~print:fst
    QCheck.Gen.(
      map
        (function
          | 0 -> ("websearch", Cdf.websearch)
          | 1 ->
              ( "websearch/1e-4",
                Cdf.scale Cdf.websearch ~factor:1e-4 ~min_bytes:44
                  ~max_bytes:4096 )
          | 2 -> ("uniform[10,100000]", uniform ~lo:10 ~hi:100_000)
          | _ -> ("fixed[777]", fixed 777))
        (int_bound 3))

let quantile_monotone =
  QCheck.Test.make ~name:"traffic: inverse CDF is monotone" ~count:500
    QCheck.(triple named_arb (float_bound_inclusive 1.0)
              (float_bound_inclusive 1.0))
    (fun ((_, c), u1, u2) ->
      let lo = Float.min u1 u2 and hi = Float.max u1 u2 in
      Cdf.quantile c lo <= Cdf.quantile c hi)

let empirical_mean_converges =
  QCheck.Test.make ~name:"traffic: sample mean approaches analytic mean"
    ~count:20
    QCheck.(small_nat)
    (fun salt ->
      (* Heavy-tailed named workloads need too many draws for a unit
         test; bounded supports converge fast. *)
      let c = uniform ~lo:50 ~hi:5000 in
      let rng = Rng.create ~seed:(1000 + salt) in
      let n = 20_000 in
      let sum = ref 0 in
      for _ = 1 to n do
        sum := !sum + Cdf.sample c rng
      done;
      let emp = float_of_int !sum /. float_of_int n in
      let ana = mean c in
      Float.abs (emp -. ana) /. ana < 0.05)

let suite =
  [
    Alcotest.test_case "of_points validation" `Quick
      test_of_points_validation;
    Alcotest.test_case "named workloads" `Quick test_named_cdfs;
    Alcotest.test_case "quantile endpoints + clamping" `Quick
      test_quantile_endpoints_and_clamp;
    Alcotest.test_case "scale clamps support" `Quick test_scale_clamps;
    Alcotest.test_case "pair burst matrix" `Quick test_pair_burst;
    QCheck_alcotest.to_alcotest quantile_monotone;
    QCheck_alcotest.to_alcotest empirical_mean_converges;
  ]
