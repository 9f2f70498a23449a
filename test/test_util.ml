open Pc_util

let check_float = Alcotest.(check (float 1e-6))

let test_mean_var () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "mean" 2.5 (Stat.mean xs);
  check_float "variance" (5. /. 3.) (Stat.variance xs);
  check_float "single-obs variance" 0. (Stat.variance [| 42. |]);
  check_float "sum" 10. (Stat.sum xs)

let test_median_percentile () =
  check_float "odd median" 3. (Stat.median [| 5.; 1.; 3. |]);
  check_float "even median" 2.5 (Stat.median [| 4.; 1.; 2.; 3. |]);
  check_float "p0" 1. (Stat.percentile [| 1.; 2.; 3. |] 0.);
  check_float "p100" 3. (Stat.percentile [| 1.; 2.; 3. |] 100.);
  check_float "p50" 2. (Stat.percentile [| 1.; 2.; 3. |] 50.);
  check_float "p25 interp" 1.5 (Stat.percentile [| 1.; 2.; 3. |] 25.)

let test_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stat.mean: empty")
    (fun () -> ignore (Stat.mean [||]))

let test_normal_quantile () =
  check_float "median quantile" 0. (Stat.normal_quantile 0.5);
  Alcotest.(check bool)
    "97.5% quantile near 1.96" true
    (Float.abs (Stat.normal_quantile 0.975 -. 1.959964) < 1e-4);
  Alcotest.(check bool)
    "symmetric" true
    (Float.abs (Stat.normal_quantile 0.01 +. Stat.normal_quantile 0.99) < 1e-6)

let test_normal_cdf_roundtrip () =
  List.iter
    (fun p ->
      let x = Stat.normal_quantile p in
      Alcotest.(check bool)
        (Printf.sprintf "cdf(quantile(%g))" p)
        true
        (Float.abs (Stat.normal_cdf x -. p) < 1e-4))
    [ 0.05; 0.25; 0.5; 0.75; 0.9; 0.999 ]

let test_log_sum_exp () =
  check_float "lse of log 1,1" (log 2.) (Stat.log_sum_exp [| 0.; 0. |]);
  check_float "lse handles scale" 1000.
    (Stat.log_sum_exp [| 1000.; -1000. |]);
  Alcotest.(check bool)
    "empty is -inf" true
    (Stat.log_sum_exp [||] = neg_infinity)

let test_float_eps () =
  Alcotest.(check bool) "approx_eq" true (Float_eps.approx_eq 1. (1. +. 1e-12));
  Alcotest.(check bool) "leq" true (Float_eps.leq 1.0000000001 1.);
  Alcotest.(check bool) "lt strict" false (Float_eps.lt 1. 1.);
  Alcotest.(check bool) "is_integer" true (Float_eps.is_integer 3.0000000001);
  Alcotest.(check int) "round" 4 (Float_eps.round_to_int 3.6);
  check_float "clamp hi" 2. (Float_eps.clamp ~lo:0. ~hi:2. 5.)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = Array.init 20 (fun _ -> Rng.int a 1000) in
  let ys = Array.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (array int)) "same seed, same stream" xs ys

let test_rng_ranges () =
  let rng = Rng.create 3 in
  for _ = 1 to 500 do
    let x = Rng.uniform rng ~lo:2. ~hi:5. in
    Alcotest.(check bool) "uniform in range" true (x >= 2. && x < 5.)
  done;
  for _ = 1 to 500 do
    let r = Rng.zipf rng ~n:10 ~s:1.1 in
    Alcotest.(check bool) "zipf rank" true (r >= 1 && r <= 10)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng ~mu:3. ~sigma:2.) in
  Alcotest.(check bool) "mean close" true (Float.abs (Stat.mean xs -. 3.) < 0.1);
  Alcotest.(check bool)
    "stddev close" true
    (Float.abs (Stat.stddev xs -. 2.) < 0.1)

let test_sample_without_replacement () =
  let rng = Rng.create 5 in
  let xs = Array.init 100 (fun i -> i) in
  let s = Rng.sample_without_replacement rng 30 xs in
  Alcotest.(check int) "size" 30 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 30 (List.length distinct);
  let all = Rng.sample_without_replacement rng 500 xs in
  Alcotest.(check int) "clipped to population" 100 (Array.length all)

let test_heap () =
  let h = Pc_util.Heap.create () in
  Alcotest.(check bool) "empty" true (Pc_util.Heap.is_empty h);
  List.iter (fun (p, v) -> Pc_util.Heap.push h p v)
    [ (1., "a"); (5., "b"); (3., "c"); (4., "d"); (2., "e") ];
  Alcotest.(check int) "size" 5 (Pc_util.Heap.size h);
  let order = ref [] in
  let rec drain () =
    match Pc_util.Heap.pop h with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "max-heap order" [ "b"; "d"; "c"; "e"; "a" ]
    (List.rev !order)

let heap_prop =
  QCheck.Test.make ~name:"heap pops in decreasing priority" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun ps ->
      let h = Pc_util.Heap.create () in
      List.iter (fun p -> Pc_util.Heap.push h p p) ps;
      let rec drain acc =
        match Pc_util.Heap.pop h with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      List.sort (fun a b -> Float.compare b a) ps = popped)

let percentile_prop =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.))
              (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Pc_util.Stat.percentile arr p in
      v >= Pc_util.Stat.minimum arr -. 1e-9
      && v <= Pc_util.Stat.maximum arr +. 1e-9)

(* ----------------------------- Clock -------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Pc_util.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Pc_util.Clock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "clock went backwards: %Ld then %Ld" !prev t;
    prev := t
  done

let test_clock_elapsed_nonneg () =
  let since = Pc_util.Clock.now () in
  for _ = 1 to 100 do
    let d = Pc_util.Clock.elapsed_s ~since in
    Alcotest.(check bool) "elapsed never negative" true (d >= 0.)
  done

(* Span durations are differences of Clock.now_ns reads, so any pair of
   reads separated by some busy work must yield a non-negative delta
   that does not exceed the enclosing pair's delta. *)
let clock_span_prop =
  QCheck.Test.make ~name:"clock deltas are non-negative and nest" ~count:200
    QCheck.(int_range 0 500)
    (fun spins ->
      let t0 = Pc_util.Clock.now_ns () in
      let t1 = Pc_util.Clock.now_ns () in
      let s = ref 0 in
      for i = 1 to spins do
        s := !s + i
      done;
      ignore !s;
      let t2 = Pc_util.Clock.now_ns () in
      let inner = Int64.sub t2 t1 in
      let outer = Int64.sub t2 t0 in
      Int64.compare inner 0L >= 0 && Int64.compare outer inner >= 0)

(* ---- Float_text: the one number codec ---- *)

let test_float_text_spelling () =
  let ft = Pc_util.Float_text.to_string in
  List.iter
    (fun (x, expected) -> Alcotest.(check string) expected expected (ft x))
    [
      (42., "42");
      (-0., "-0");
      (1e15, "1000000000000000");
      (0x1p53, "9007199254740992");
      (0.5, "0.5");
      (0.1 +. 0.2, "0.30000000000000004");
      (1. /. 3., "0.3333333333333333");
      (infinity, "inf");
      (neg_infinity, "-inf");
    ]

let float_text_prop =
  QCheck.Test.make ~name:"Float_text reads back bit-equal" ~count:2000
    Doubles.arb (fun x ->
      Doubles.bit_equal x (float_of_string (Pc_util.Float_text.to_string x)))

(* The printer against the one it replaced (test/oracle/
   float_text_oracle.ml), byte for byte: the integer and short-decimal
   paths, the switches between them and the [snprintf] round trip. *)
let test_float_text_edges () =
  let check x =
    Alcotest.(check string)
      (Printf.sprintf "%h" x) (Float_text_oracle.to_string x) (Pc_util.Float_text.to_string x)
  in
  let p53 = 0x1p53 in
  List.iter
    (fun x ->
      check x;
      check (-.x))
    ([
       0.; p53 -. 1.; p53; p53 +. 2.; 1e15; 1e16; 1e15 +. 1.; 1e15 -. 0.5; 1e14 +. 0.5;
       99999999999999.9; 1e-4; 1e-5; 0.0001234; 0.00001234; 0.000099999; 1.5e-5;
       0.1 +. 0.2; 0.1; 0.5; 123.456; 1. /. 3.; 2. /. 3.; 0.001; 1.001; 12.345678;
       Float.max_float; Float.min_float; 4.9e-324; 2.2250738585072009e-308;
       Float.pred 1e-4; Float.succ 1e-4; Float.pred 1e15; Float.succ 0.1;
       0.123456789012345; 0.1234567890123456; 1.00000000000001; 9.99999999999999;
       1e22; 1e23; 0.3e-3;
     ]
    @ List.init 140 (fun e -> ldexp 1. (e - 70))
    @ List.init 12 (fun ns -> Float.round (float_of_int (ns * 997 * 1013)) /. 1e6))

let float_text_oracle_prop =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (6, map Int64.float_of_bits ui64);
          ( 2,
            map2
              (fun m k -> float_of_int m /. (10. ** float_of_int k))
              (int_range (-999_999_999_999_999) 999_999_999_999_999)
              (0 -- 20) );
          (1, map (fun ns -> float_of_int ns /. 1e6) (int_bound 1_000_000_000));
        ]
      |> map (fun x -> if Float.is_finite x then x else 0.5))
  in
  QCheck.Test.make ~name:"Float_text prints what the snprintf printer did" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen) (fun x ->
      Pc_util.Float_text.to_string x = Float_text_oracle.to_string x)

let () =
  Alcotest.run "pc_util"
    [
      ( "stat",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_var;
          Alcotest.test_case "median/percentile" `Quick test_median_percentile;
          Alcotest.test_case "empty input raises" `Quick test_empty_raises;
          Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
          Alcotest.test_case "cdf/quantile roundtrip" `Quick
            test_normal_cdf_roundtrip;
          Alcotest.test_case "log_sum_exp" `Quick test_log_sum_exp;
        ] );
      ( "float_eps",
        [ Alcotest.test_case "tolerant comparisons" `Quick test_float_eps ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "sampling w/o replacement" `Quick
            test_sample_without_replacement;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap;
          QCheck_alcotest.to_alcotest heap_prop;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "elapsed non-negative" `Quick
            test_clock_elapsed_nonneg;
          QCheck_alcotest.to_alcotest clock_span_prop;
        ] );
      ( "float_text",
        [
          Alcotest.test_case "spelling" `Quick test_float_text_spelling;
          QCheck_alcotest.to_alcotest float_text_prop;
          Alcotest.test_case "edges match the oracle" `Quick test_float_text_edges;
          QCheck_alcotest.to_alcotest float_text_oracle_prop;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest percentile_prop ]);
    ]
