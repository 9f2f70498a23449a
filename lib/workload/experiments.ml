module Q = Pc_query.Query
module Rng = Pc_util.Rng
module Relation = Pc_data.Relation
module Pc_set = Pc_core.Pc_set
module Bounds = Pc_core.Bounds
module Generate = Pc_core.Generate
module Cells = Pc_core.Cells
module Range = Pc_core.Range
module Atom = Pc_predicate.Atom

type config = { seed : int; scale : float; queries : int }

let scaled cfg base = max 10 (int_of_float (float_of_int base *. cfg.scale))
let fractions = [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

(* ------------------------------------------------------------------ *)
(* Shared setup                                                        *)
(* ------------------------------------------------------------------ *)

let sensor_rows cfg = scaled cfg 20_000
let n_pcs cfg = scaled cfg 400
let n_rand_pcs cfg = max 10 (scaled cfg 40)

let sensor_split cfg ~fraction =
  let rng = Rng.create cfg.seed in
  let full = Pc_synth.Sensor.generate rng ~rows:(sensor_rows cfg) in
  Pc_synth.Missing.top_values full ~attr:"light" ~fraction

let corr_pc_baseline ?(label = "Corr-PC") missing ~attrs ~n =
  Runner.of_pc_set label (Pc_set.make (Generate.corr_partition missing ~attrs ~n ()))

let rand_pc_baseline ?(label = "Rand-PC") rng missing ~attrs ~n =
  Runner.of_pc_set label (Pc_set.make (Generate.rand_pcs rng missing ~attrs ~n ()))

let histogram_baseline missing ~attrs ~bins =
  Runner.of_estimator (Pc_stats.Histogram.estimator missing ~attrs ~bins)

let us_baseline ?(confidence = 0.9999) rng missing ~m ~method_ ~label =
  let sample = Pc_stats.Sample.uniform rng missing ~m in
  Runner.of_estimator
    (Pc_stats.Ci.uniform_estimator ~name:label ~method_ ~confidence ~sample
       ~n_total:(Relation.cardinality missing))

let st_baseline ?(confidence = 0.9999) rng missing ~strata_attr ~m ~method_ ~label =
  let strata_of =
    Pc_stats.Sample.strata_by_quantiles missing ~attr:strata_attr ~buckets:10
  in
  let strata = Pc_stats.Sample.stratified rng missing ~strata_of ~m in
  Runner.of_estimator
    (Pc_stats.Ci.stratified_estimator ~name:label ~method_ ~confidence ~strata)

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let fig1_extrapolation cfg =
  Report.section "Figure 1: simple extrapolation under correlated missingness";
  print_endline "  (relative error of extrapolated SUM(light); paper: error grows";
  print_endline "   steeply with the missing fraction)";
  let rng = Rng.create cfg.seed in
  let full = Pc_synth.Sensor.generate rng ~rows:(sensor_rows cfg) in
  let rows =
    List.map
      (fun fraction ->
        let split = Pc_synth.Missing.top_values full ~attr:"light" ~fraction in
        let err =
          Pc_stats.Extrapolate.relative_error ~observed:split.Pc_synth.Missing.observed
            ~missing:split.Pc_synth.Missing.missing (Q.sum "light")
        in
        [
          Printf.sprintf "%.1f" fraction;
          (match err with Some e -> Report.fnum e | None -> "n/a");
        ])
      [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]
  in
  Report.table ~header:[ "missing fraction"; "relative error" ] rows

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4                                                     *)
(* ------------------------------------------------------------------ *)

let sensor_attrs = [ "device"; "time" ]

let sensor_baselines cfg missing =
  let rng = Rng.create (cfg.seed + 1) in
  let n = n_pcs cfg in
  [
    corr_pc_baseline missing ~attrs:sensor_attrs ~n;
    rand_pc_baseline rng missing ~attrs:sensor_attrs ~n:(n_rand_pcs cfg);
    us_baseline rng missing ~m:n ~method_:Pc_stats.Ci.Nonparametric ~label:"US-1n";
    st_baseline rng missing ~strata_attr:"time" ~m:n
      ~method_:Pc_stats.Ci.Nonparametric ~label:"ST-1n";
    histogram_baseline missing ~attrs:sensor_attrs
      ~bins:(max 2 (int_of_float (sqrt (float_of_int n))));
  ]

let fig34_run cfg ~agg ~title =
  Report.section title;
  let header =
    "missing" :: List.map (fun b -> b.Runner.label) (sensor_baselines cfg (Pc_synth.Sensor.generate (Rng.create 0) ~rows:20))
  in
  let run_metric which =
    List.map
      (fun fraction ->
        let split = sensor_split cfg ~fraction in
        let missing = split.Pc_synth.Missing.missing in
        let baselines = sensor_baselines cfg missing in
        let queries =
          Querygen.random_queries
            (Rng.create (cfg.seed + 2))
            missing ~attrs:sensor_attrs ~agg ~n:cfg.queries
        in
        let results = Runner.run ~baselines ~missing ~queries in
        Printf.sprintf "%.1f" fraction
        :: List.map
             (fun (_, (s : Metrics.summary)) ->
               match which with
               | `Failure -> Report.fpct s.Metrics.failure_rate
               | `Over -> Report.fnum s.Metrics.median_over_estimation)
             results)
      fractions
  in
  print_endline "  Failure rate (paper: 0 for PC/Histogram; sampling fails on skew):";
  Report.table ~header (run_metric `Failure);
  print_endline "\n  Median over-estimation rate (paper: Corr-PC ~1-3x, Rand-PC ~10x):";
  Report.table ~header (run_metric `Over)

let fig3_count cfg =
  fig34_run cfg ~agg:Querygen.Count
    ~title:"Figure 3: COUNT(*) on the sensor dataset vs missing fraction"

let fig4_sum cfg =
  fig34_run cfg ~agg:(Querygen.Sum "light")
    ~title:"Figure 4: SUM(light) on the sensor dataset vs missing fraction"

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let tab1_confidence_tradeoff cfg =
  Report.section "Table 1: sampling confidence-level trade-off vs Corr-PC";
  let split = sensor_split cfg ~fraction:0.5 in
  let missing = split.Pc_synth.Missing.missing in
  let n = n_pcs cfg in
  (* broader predicates so the sample always sees matches: failures then
     come from interval width, the trade-off this table isolates *)
  let queries =
    Querygen.random_queries ~selectivity:(0.2, 0.5)
      (Rng.create (cfg.seed + 3))
      missing ~attrs:sensor_attrs ~agg:(Querygen.Sum "light") ~n:cfg.queries
  in
  let confidences = [ 0.80; 0.85; 0.90; 0.95; 0.99; 0.999; 0.9999 ] in
  let rng = Rng.create (cfg.seed + 4) in
  let sample = Pc_stats.Sample.uniform rng missing ~m:n in
  let rows =
    List.map
      (fun confidence ->
        let b =
          Runner.of_estimator
            (Pc_stats.Ci.uniform_estimator ~name:"US-1"
               ~method_:Pc_stats.Ci.Parametric ~confidence ~sample
               ~n_total:(Relation.cardinality missing))
        in
        let s = Metrics.summarize (Runner.outcomes b ~missing ~queries) in
        [
          Printf.sprintf "US-1 @ %g%%" (100. *. confidence);
          Report.fpct s.Metrics.failure_rate;
          Report.fnum s.Metrics.median_over_estimation;
        ])
      confidences
  in
  let pc = corr_pc_baseline missing ~attrs:sensor_attrs ~n in
  let s = Metrics.summarize (Runner.outcomes pc ~missing ~queries) in
  let rows =
    rows
    @ [
        [
          "Corr-PC";
          Report.fpct s.Metrics.failure_rate;
          Report.fnum s.Metrics.median_over_estimation;
        ];
      ]
  in
  Report.table ~header:[ "baseline"; "failure rate"; "median over-estimation" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

let fig5_sample_size cfg =
  Report.section "Figure 5: sampling accuracy vs sample size (1x..10x)";
  print_endline "  (paper: ~10x the data is needed to match a well-designed PC)";
  let split = sensor_split cfg ~fraction:0.5 in
  let missing = split.Pc_synth.Missing.missing in
  let n = n_pcs cfg in
  let run_for agg =
    let queries =
      Querygen.random_queries ~selectivity:(0.2, 0.5)
        (Rng.create (cfg.seed + 5))
        missing ~attrs:sensor_attrs ~agg ~n:cfg.queries
    in
    let pc = corr_pc_baseline missing ~attrs:sensor_attrs ~n in
    let pc_summary = Metrics.summarize (Runner.outcomes pc ~missing ~queries) in
    let rows =
      List.map
        (fun mult ->
          (* average several sample draws: a single draw's spread estimate
             is noisy under heavy tails *)
          let reps = 5 in
          let summaries =
            List.init reps (fun rep ->
                let rng = Rng.create (cfg.seed + 6 + (100 * mult) + rep) in
                let b =
                  us_baseline rng missing ~m:(mult * n)
                    ~method_:Pc_stats.Ci.Nonparametric
                    ~label:(Printf.sprintf "US-%dN" mult)
                in
                Metrics.summarize (Runner.outcomes b ~missing ~queries))
          in
          let mean f =
            Pc_util.Stat.mean (Array.of_list (List.map f summaries))
          in
          [
            Printf.sprintf "%dN" mult;
            Report.fnum (mean (fun s -> s.Metrics.median_over_estimation));
            Report.fpct (mean (fun s -> s.Metrics.failure_rate));
          ])
        [ 1; 2; 5; 10 ]
    in
    rows
    @ [
        [
          "Corr-PC";
          Report.fnum pc_summary.Metrics.median_over_estimation;
          Report.fpct pc_summary.Metrics.failure_rate;
        ];
      ]
  in
  print_endline "  COUNT(*):";
  Report.table ~header:[ "sample"; "median over-est"; "failure rate" ]
    (run_for Querygen.Count);
  print_endline "\n  SUM(light):";
  Report.table ~header:[ "sample"; "median over-est"; "failure rate" ]
    (run_for (Querygen.Sum "light"))

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let fig6_noise cfg =
  Report.section "Figure 6: robustness to mis-specified bounds (0-3 SD noise)";
  print_endline "  (paper: overlapping PCs reject some mis-specification; sampling";
  print_endline "   degrades fastest)";
  let split = sensor_split cfg ~fraction:0.5 in
  let missing = split.Pc_synth.Missing.missing in
  let n = n_pcs cfg in
  (* broader predicates keep the bounds interior-dominated (small
     count-boundary slack), isolating the effect of value noise *)
  let queries =
    Querygen.random_queries ~selectivity:(0.2, 0.5)
      (Rng.create (cfg.seed + 7))
      missing ~attrs:sensor_attrs ~agg:(Querygen.Sum "light") ~n:cfg.queries
  in
  let corr_pcs = Generate.corr_partition missing ~attrs:sensor_attrs ~n () in
  (* 10 coarse redundant constraints: lots of slack between bound and
     truth, so the same absolute mis-specification has to be much larger
     before the most restrictive surviving component clips below the
     true value *)
  let overlap_pcs =
    Generate.rand_pcs ~width_frac:(0.5, 1.)
      (Rng.create (cfg.seed + 8))
      missing ~attrs:sensor_attrs ~n:10 ()
  in
  let noisy_sample_baseline rng ~sd_scale =
    (* mis-measured examples (paper §6.3.2: "functionally equivalent to an
       inaccurate PC"): a systematic bias plus a rescaled dispersion,
       which mis-centers and mis-sizes the confidence interval *)
    let sample = Pc_stats.Sample.uniform rng missing ~m:(10 * n) in
    let schema = Relation.schema sample in
    let idx = Pc_data.Schema.index schema "light" in
    let col = Relation.column sample "light" in
    let mean = Pc_util.Stat.mean col in
    let sd = Pc_util.Stat.stddev col in
    let bias = Rng.gaussian rng ~mu:0. ~sigma:(0.8 *. sd_scale *. sd) in
    let factor =
      Float.max 0.02 (1. +. Rng.gaussian rng ~mu:0. ~sigma:(0.3 *. sd_scale))
    in
    let noisy =
      Relation.of_array schema
        (Array.map
           (fun row ->
             let row = Array.copy row in
             (match row.(idx) with
             | Pc_data.Value.Num x ->
                 row.(idx) <-
                   Pc_data.Value.Num (mean +. bias +. ((x -. mean) *. factor))
             | Pc_data.Value.Str _ -> ());
             row)
           (Relation.tuples sample))
    in
    Runner.of_estimator
      (Pc_stats.Ci.uniform_estimator ~name:"US-10n"
         ~method_:Pc_stats.Ci.Parametric ~confidence:0.9999 ~sample:noisy
         ~n_total:(Relation.cardinality missing))
  in
  (* the systematic mis-belief draw makes single runs all-or-nothing;
     average over repetitions *)
  let reps = 12 in
  let queries = List.filteri (fun i _ -> i < max 10 (cfg.queries / 3)) queries in
  let rows =
    List.map
      (fun sd ->
        let failure_rates =
          List.init reps (fun rep ->
              let rng = Rng.create (cfg.seed + 9 + (100 * rep) + int_of_float (10. *. sd)) in
              let sigma =
                [ ("light", sd *. Pc_util.Stat.stddev (Relation.column missing "light")) ]
              in
              let corrupt = Pc_core.Noise.corrupt_values_systematic rng ~sigma in
              let baselines =
                [
                  Runner.of_pc_set "Corr-PC" (Pc_set.make (corrupt corr_pcs));
                  Runner.of_pc_set "Overlapping-PC"
                    (Pc_set.make (corrupt overlap_pcs));
                  noisy_sample_baseline rng ~sd_scale:sd;
                ]
              in
              Runner.run ~baselines ~missing ~queries
              |> List.map (fun (_, (s : Metrics.summary)) -> s.Metrics.failure_rate))
        in
        let mean_of i =
          Pc_util.Stat.mean
            (Array.of_list (List.map (fun rates -> List.nth rates i) failure_rates))
        in
        [ Printf.sprintf "%g SD" sd; Report.fpct (mean_of 0); Report.fpct (mean_of 1);
          Report.fpct (mean_of 2) ])
      [ 0.; 1.; 2.; 3. ]
  in
  Report.table ~header:[ "noise"; "Corr-PC"; "Overlapping-PC"; "US-10n" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let fig7_decomposition cfg =
  Report.section "Figure 7: cell-decomposition optimizations (solver calls)";
  print_endline "  (paper: DFS + rewriting prunes >99.9% of the naive cells)";
  let n = min 20 (max 8 (scaled cfg 16)) in
  let rng = Rng.create cfg.seed in
  let pcs =
    List.init n (fun i ->
        let lo = Rng.uniform rng ~lo:0. ~hi:60. in
        let w = Rng.uniform rng ~lo:25. ~hi:60. in
        Pc_core.Pc.make
          ~name:(Printf.sprintf "p%d" i)
          ~pred:[ Atom.between "x" lo (lo +. w) ]
          ~values:[ ("v", Pc_interval.Interval.closed 0. 1.) ]
          ~freq:(0, 10) ())
  in
  let set = Pc_set.make pcs in
  let rows =
    List.map
      (fun strategy ->
        let cells, stats = Cells.decompose ~strategy set in
        [
          Cells.strategy_name strategy;
          string_of_int stats.Cells.sat_calls;
          string_of_int (List.length cells);
          Printf.sprintf "%.3f s" stats.Cells.elapsed;
        ])
      [ Cells.Naive; Cells.Dfs; Cells.Dfs_rewrite ]
  in
  Printf.printf "  (%d heavily overlapping PCs)\n" n;
  Report.table ~header:[ "strategy"; "solver calls"; "cells"; "time" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

let fig8_partition_scaling cfg =
  Report.section "Figure 8: solve time vs disjoint partition size";
  print_endline "  (paper: ~50ms at 2000 partitions, linear in partition size)";
  let rng = Rng.create cfg.seed in
  let full = Pc_synth.Sensor.generate rng ~rows:(sensor_rows cfg) in
  let split = Pc_synth.Missing.top_values full ~attr:"light" ~fraction:0.5 in
  let missing = split.Pc_synth.Missing.missing in
  let sizes = [ 50; 100; 500; 1000; 2000 ] in
  let queries =
    Querygen.random_queries (Rng.create (cfg.seed + 1)) missing
      ~attrs:sensor_attrs ~agg:(Querygen.Sum "light") ~n:20
  in
  let rows =
    List.map
      (fun size ->
        let set =
          Pc_set.make (Generate.corr_partition missing ~attrs:sensor_attrs ~n:size ())
        in
        ignore (Pc_set.is_disjoint set);
        let t0 = Pc_util.Clock.now () in
        List.iter (fun q -> ignore (Bounds.bound set q)) queries;
        let elapsed = Pc_util.Clock.elapsed_s ~since:t0 in
        [
          string_of_int size;
          string_of_int (List.length (Pc_set.pcs set));
          Printf.sprintf "%.2f ms" (1000. *. elapsed /. float_of_int (List.length queries));
        ])
      sizes
  in
  Report.table ~header:[ "requested partitions"; "non-empty PCs"; "time per query" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)
(* ------------------------------------------------------------------ *)

let fig9_min_max_avg cfg =
  Report.section "Figure 9: MIN / MAX / AVG tightness with Corr-PC";
  print_endline "  (paper: optimal bounds for MIN/MAX; competitive for AVG)";
  (* full §6.2 protocol: the missing part is bounded with PCs and combined
     with the certain partition's exact partial answer *)
  let split = sensor_split cfg ~fraction:0.5 in
  let missing = split.Pc_synth.Missing.missing in
  let observed = split.Pc_synth.Missing.observed in
  let full = Relation.union observed missing in
  let set =
    Pc_set.make (Generate.corr_partition missing ~attrs:sensor_attrs ~n:(n_pcs cfg) ())
  in
  let ratio_for agg ~side =
    let queries =
      Querygen.random_queries (Rng.create (cfg.seed + 11)) missing
        ~attrs:sensor_attrs ~agg ~n:cfg.queries
    in
    let ratios =
      List.filter_map
        (fun q ->
          match (Q.eval full q, Bounds.bound_with_certain set ~certain:observed q) with
          | Some truth, Bounds.Range r when truth > 0. -> (
              match side with
              | `Hi when Float.is_finite r.Range.hi -> Some (r.Range.hi /. truth)
              | `Lo when r.Range.lo > 0. -> Some (truth /. r.Range.lo)
              | _ -> None)
          | _ -> None)
        queries
    in
    match ratios with
    | [] -> nan
    | _ -> Pc_util.Stat.median (Array.of_list ratios)
  in
  Report.table ~header:[ "aggregate"; "median over-estimation" ]
    [
      [ "MIN"; Report.fnum (ratio_for (Querygen.Min "light") ~side:`Lo) ];
      [ "MAX"; Report.fnum (ratio_for (Querygen.Max "light") ~side:`Hi) ];
      [ "AVG"; Report.fnum (ratio_for (Querygen.Avg "light") ~side:`Hi) ];
    ]

(* ------------------------------------------------------------------ *)
(* Figures 10 and 11                                                   *)
(* ------------------------------------------------------------------ *)

let skewed_dataset_run cfg ~title ~dataset ~attrs ~agg_attr ~strata_attr =
  Report.section title;
  print_endline "  (paper: informed PCs rival sampling; random PCs ~10x looser but";
  print_endline "   never fail)";
  let split = Pc_synth.Missing.top_values dataset ~attr:agg_attr ~fraction:0.5 in
  let missing = split.Pc_synth.Missing.missing in
  let rng = Rng.create (cfg.seed + 12) in
  let n = n_pcs cfg in
  let baselines =
    [
      corr_pc_baseline missing ~attrs ~n;
      rand_pc_baseline rng missing ~attrs ~n:(n_rand_pcs cfg);
      us_baseline rng missing ~m:(10 * n) ~method_:Pc_stats.Ci.Nonparametric
        ~label:"US-10n";
      st_baseline rng missing ~strata_attr ~m:(10 * n)
        ~method_:Pc_stats.Ci.Nonparametric ~label:"ST-10n";
      histogram_baseline missing ~attrs ~bins:(max 2 (int_of_float (sqrt (float_of_int n))));
    ]
  in
  let run agg title =
    let queries =
      Querygen.random_queries (Rng.create (cfg.seed + 13)) missing ~attrs ~agg
        ~n:cfg.queries
    in
    let results = Runner.run ~baselines ~missing ~queries in
    print_endline title;
    Report.table ~header:[ "baseline"; "median over-est"; "failure rate" ]
      (List.map
         (fun (label, (s : Metrics.summary)) ->
           [
             label;
             Report.fnum s.Metrics.median_over_estimation;
             Report.fpct s.Metrics.failure_rate;
           ])
         results)
  in
  run Querygen.Count "  COUNT(*):";
  print_newline ();
  run (Querygen.Sum agg_attr) (Printf.sprintf "  SUM(%s):" agg_attr)

let fig10_listings cfg =
  let dataset =
    Pc_synth.Listings.generate (Rng.create cfg.seed) ~rows:(scaled cfg 15_000)
  in
  skewed_dataset_run cfg
    ~title:"Figure 10: Airbnb-like listings (predicates on lat/lon)"
    ~dataset ~attrs:[ "latitude"; "longitude" ] ~agg_attr:"price"
    ~strata_attr:"latitude"

let fig11_border cfg =
  let dataset =
    Pc_synth.Border.generate (Rng.create cfg.seed) ~rows:(scaled cfg 15_000)
  in
  skewed_dataset_run cfg
    ~title:"Figure 11: border-crossing-like dataset (predicates on port/date)"
    ~dataset ~attrs:[ "port"; "date" ] ~agg_attr:"value" ~strata_attr:"port"

(* ------------------------------------------------------------------ *)
(* Figure 12                                                           *)
(* ------------------------------------------------------------------ *)

let fig12_joins cfg =
  Report.section "Figure 12: join bounds vs elastic sensitivity";
  print_endline "  (paper: the GWE/edge-cover bound is orders of magnitude tighter)";
  let sizes =
    List.filter (fun n -> float_of_int n <= 10_000. *. Float.max 1. cfg.scale)
      [ 10; 100; 1_000; 10_000 ]
  in
  let pcs_for rel attr =
    Pc_set.make
      (Generate.corr_partition rel ~attrs:[ attr ] ~n:20 ~value_attrs:[] ())
  in
  print_endline "  Triangle counting |R(a,b) |><| S(b,c) |><| T(c,a)|:";
  let triangle_rows =
    List.map
      (fun n ->
        let rng = Rng.create (cfg.seed + n) in
        let r = Pc_synth.Graphs.random_edges rng ~a:"a" ~b:"b" ~n ~vertices:n in
        let s = Pc_synth.Graphs.random_edges rng ~a:"b" ~b:"c" ~n ~vertices:n in
        let t = Pc_synth.Graphs.random_edges rng ~a:"c" ~b:"a" ~n ~vertices:n in
        let tables =
          [
            Pc_join.Join_bound.table ~name:"R" ~join_attrs:[ "a"; "b" ] (pcs_for r "a");
            Pc_join.Join_bound.table ~name:"S" ~join_attrs:[ "b"; "c" ] (pcs_for s "b");
            Pc_join.Join_bound.table ~name:"T" ~join_attrs:[ "c"; "a" ] (pcs_for t "c");
          ]
        in
        let pc_bound = Pc_join.Join_bound.count_bound tables in
        let naive = Pc_join.Join_bound.naive_count_bound tables in
        let es = Pc_join.Elastic.triangle_bound ~n:(float_of_int n) in
        let truth = Pc_synth.Graphs.triangle_count ~r ~s ~t in
        [
          string_of_int n;
          string_of_int truth;
          Report.fnum pc_bound;
          Report.fnum es;
          Report.fnum naive;
        ])
      sizes
  in
  Report.table
    ~header:[ "table size"; "true count"; "Corr-PC (GWE)"; "elastic sens."; "naive product" ]
    triangle_rows;
  print_endline "\n  Acyclic 5-chain |R1(x1,x2) |><| ... |><| R5(x5,x6)|:";
  let chain_rows =
    List.map
      (fun n ->
        let rng = Rng.create (cfg.seed + (2 * n) + 1) in
        let rels =
          List.init 5 (fun i ->
              Pc_synth.Graphs.random_edges rng
                ~a:(Printf.sprintf "x%d" (i + 1))
                ~b:(Printf.sprintf "x%d" (i + 2))
                ~n ~vertices:n)
        in
        let tables =
          List.mapi
            (fun i rel ->
              Pc_join.Join_bound.table
                ~name:(Printf.sprintf "R%d" (i + 1))
                ~join_attrs:
                  [ Printf.sprintf "x%d" (i + 1); Printf.sprintf "x%d" (i + 2) ]
                (pcs_for rel (Printf.sprintf "x%d" (i + 1))))
            rels
        in
        let pc_bound = Pc_join.Join_bound.count_bound tables in
        let naive = Pc_join.Join_bound.naive_count_bound tables in
        let es = Pc_join.Elastic.chain_bound ~n:(float_of_int n) ~k:5 in
        let truth = Pc_synth.Graphs.chain_join_count rels in
        [
          string_of_int n;
          string_of_int truth;
          Report.fnum pc_bound;
          Report.fnum es;
          Report.fnum naive;
        ])
      sizes
  in
  Report.table
    ~header:[ "table size"; "true count"; "Corr-PC (GWE)"; "elastic sens."; "naive product" ]
    chain_rows

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let tab2_failure_census cfg =
  Report.section "Table 2: failure counts over random predicates";
  print_endline "  (paper: PCs and Histograms never fail; CLT intervals fail far";
  print_endline "   beyond their nominal rate on skewed data; Gen is erratic)";
  let nq = max 20 (cfg.queries / 2) in
  let datasets =
    [
      ( "Sensor",
        Pc_synth.Sensor.generate (Rng.create cfg.seed) ~rows:(scaled cfg 12_000),
        "light",
        [ [ "time" ]; [ "device" ]; [ "device"; "time" ] ] );
      ( "Listings",
        Pc_synth.Listings.generate (Rng.create cfg.seed) ~rows:(scaled cfg 12_000),
        "price",
        [ [ "latitude" ]; [ "longitude" ]; [ "latitude"; "longitude" ] ] );
      ( "Border",
        Pc_synth.Border.generate (Rng.create cfg.seed) ~rows:(scaled cfg 12_000),
        "value",
        [ [ "port" ]; [ "date" ]; [ "port"; "date" ] ] );
    ]
  in
  let header =
    [ "dataset"; "query"; "pred attrs"; "PC"; "Hist"; "US-1p"; "US-10p"; "US-1n";
      "US-10n"; "ST-1n"; "ST-10n"; "Gen" ]
  in
  let all_rows = ref [] in
  List.iter
    (fun (ds_name, dataset, agg_attr, attr_sets) ->
      let split = Pc_synth.Missing.top_values dataset ~attr:agg_attr ~fraction:0.4 in
      let missing = split.Pc_synth.Missing.missing in
      let n = max 20 (n_pcs cfg / 2) in
      let rng = Rng.create (cfg.seed + 17) in
      let gmm_attrs =
        List.sort_uniq String.compare
          (agg_attr
          :: List.concat_map
               (fun attrs ->
                 List.filter
                   (fun a ->
                     Pc_data.Schema.kind (Relation.schema missing) a
                     = Pc_data.Schema.Numeric)
                   attrs)
               attr_sets)
      in
      let gmm = Pc_stats.Gmm.fit ~iters:20 ~k:4 rng missing ~attrs:gmm_attrs in
      let gen_baseline =
        Runner.of_estimator
          (Pc_stats.Gmm.estimator rng gmm
             ~n_missing:(Relation.cardinality missing)
             ~trials:10)
      in
      List.iter
        (fun (agg, agg_name) ->
          List.iter
            (fun attrs ->
              let strata_attr = List.hd attrs in
              let baselines =
                [
                  corr_pc_baseline ~label:"PC" missing ~attrs ~n;
                  histogram_baseline missing ~attrs
                    ~bins:(max 2 (int_of_float (sqrt (float_of_int n))));
                  us_baseline ~confidence:0.99 rng missing ~m:n
                    ~method_:Pc_stats.Ci.Parametric ~label:"US-1p";
                  us_baseline ~confidence:0.99 rng missing ~m:(10 * n)
                    ~method_:Pc_stats.Ci.Parametric ~label:"US-10p";
                  us_baseline ~confidence:0.99 rng missing ~m:n
                    ~method_:Pc_stats.Ci.Nonparametric ~label:"US-1n";
                  us_baseline ~confidence:0.99 rng missing ~m:(10 * n)
                    ~method_:Pc_stats.Ci.Nonparametric ~label:"US-10n";
                  st_baseline ~confidence:0.99 rng missing ~strata_attr ~m:n
                    ~method_:Pc_stats.Ci.Nonparametric ~label:"ST-1n";
                  st_baseline ~confidence:0.99 rng missing ~strata_attr ~m:(10 * n)
                    ~method_:Pc_stats.Ci.Nonparametric ~label:"ST-10n";
                  gen_baseline;
                ]
              in
              let queries =
                Querygen.random_queries (Rng.create (cfg.seed + 19)) missing
                  ~attrs ~agg ~n:nq
              in
              let results = Runner.run ~baselines ~missing ~queries in
              let row =
                [ ds_name; agg_name; String.concat "," attrs ]
                @ List.map
                    (fun (_, (s : Metrics.summary)) ->
                      string_of_int s.Metrics.failures)
                    results
              in
              all_rows := row :: !all_rows)
            attr_sets)
        [ (Querygen.Count, "COUNT(*)"); (Querygen.Sum agg_attr, "SUM") ])
    datasets;
  Printf.printf "  (%d queries per row)\n" nq;
  Report.table ~header (List.rev !all_rows)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let overlapping_test_set cfg k =
  let rng = Rng.create (cfg.seed + 23) in
  let missing =
    Pc_synth.Sensor.generate (Rng.create cfg.seed) ~rows:(scaled cfg 4_000)
  in
  ( missing,
    Pc_set.make (Generate.rand_pcs rng missing ~attrs:[ "time" ] ~n:k ()) )

let ablation_earlystop cfg =
  Report.section "Ablation: early-stop depth (Optimization 4)";
  print_endline "  (verified prefix depth K trades solver calls for bound tightness)";
  let missing, set = overlapping_test_set cfg 10 in
  let query = Q.sum "light" in
  ignore missing;
  let exact_hi =
    match Bounds.bound set query with
    | Bounds.Range r -> r.Range.hi
    | _ -> nan
  in
  let k_max = Pc_set.size set in
  let rows =
    List.map
      (fun k ->
        let strategy = if k >= k_max then Cells.Dfs_rewrite else Cells.Early_stop k in
        let _, stats = Cells.decompose ~strategy set in
        let opts = { Bounds.default_opts with Bounds.strategy; use_greedy = false } in
        let hi =
          match Bounds.bound ~opts set query with
          | Bounds.Range r -> r.Range.hi
          | _ -> nan
        in
        [
          (if k >= k_max then "exact" else Printf.sprintf "K=%d" k);
          string_of_int stats.Cells.sat_calls;
          string_of_int stats.Cells.n_cells;
          Report.fnum hi;
          Report.fnum (hi /. exact_hi);
        ])
      [ 2; 4; 6; k_max ]
  in
  Report.table
    ~header:[ "depth"; "solver calls"; "cells"; "SUM upper bound"; "vs exact" ]
    rows

(* The paper's Proposition 4.1 reduction: an independent-set instance as
   predicate-constraints. One PC per vertex (x = v, value 1, at most one
   row) and one per edge (x ∈ {v, v'}, at most one row). The maximal SUM
   equals the maximum independent set; odd cycles make the LP relaxation
   fractional (k/2 vs the true ⌊k/2⌋). *)
let odd_cycle_pc_set k =
  let vertex v = Printf.sprintf "v%d" v in
  let vertex_pcs =
    List.init k (fun v ->
        Pc_core.Pc.make
          ~name:(Printf.sprintf "vertex%d" v)
          ~pred:[ Atom.cat_eq "x" (vertex v) ]
          ~values:[ ("w", Pc_interval.Interval.closed 1. 1.) ]
          ~freq:(0, 1) ())
  in
  let edge_pcs =
    List.init k (fun v ->
        Pc_core.Pc.make
          ~name:(Printf.sprintf "edge%d" v)
          ~pred:[ Atom.Cat_in ("x", [ vertex v; vertex ((v + 1) mod k) ]) ]
          ~values:[]
          ~freq:(0, 1) ())
  in
  Pc_set.make (vertex_pcs @ edge_pcs)

let ablation_milp _cfg =
  Report.section "Ablation: root LP relaxation vs branch-and-bound";
  print_endline "  (the paper's Prop. 4.1 independent-set instances: odd cycles make";
  print_endline "   the LP relaxation fractional, so rounding it would overstate the";
  print_endline "   bound; branch-and-bound recovers the integral optimum k/2 -> (k-1)/2)";
  let rows =
    List.map
      (fun k ->
        let set = odd_cycle_pc_set k in
        let hi ~node_limit =
          let opts =
            { Bounds.default_opts with Bounds.node_limit; use_greedy = false }
          in
          match Bounds.bound ~opts set (Q.sum "w") with
          | Bounds.Range r -> r.Range.hi
          | _ -> nan
        in
        [
          Printf.sprintf "%d-cycle" k;
          Report.fnum (hi ~node_limit:0);
          Report.fnum (hi ~node_limit:4_000);
          string_of_int ((k - 1) / 2);
        ])
      [ 5; 7; 9; 11 ]
  in
  Report.table
    ~header:[ "instance"; "root-LP bound"; "B&B bound"; "max independent set" ]
    rows

let ablation_tighten cfg =
  Report.section "Ablation: inferring value bounds from predicate/query ranges";
  print_endline "  (PCs that state only frequencies over value regions - e.g. \"at";
  print_endline "   most k rows with light in [a,b]\" - have no explicit value";
  print_endline "   constraint; without clipping, SUM is unbounded)";
  let missing =
    Pc_synth.Sensor.generate (Rng.create cfg.seed) ~rows:(scaled cfg 4_000)
  in
  (* frequency-only histogram over the aggregate attribute itself *)
  let set =
    Pc_set.make
      (Generate.corr_partition ~value_attrs:[] missing ~attrs:[ "light" ] ~n:12 ())
  in
  let queries =
    Querygen.random_queries (Rng.create (cfg.seed + 31)) missing ~attrs:[ "light" ]
      ~agg:(Querygen.Sum "light") ~n:10
  in
  let hi_with ~tighten q =
    let opts = { Bounds.default_opts with Bounds.tighten } in
    match Bounds.bound ~opts set q with
    | Bounds.Range r -> r.Range.hi
    | _ -> nan
  in
  let rows =
    List.mapi
      (fun i q ->
        let truth = Option.value (Q.eval missing q) ~default:nan in
        [
          Printf.sprintf "query %d" (i + 1);
          Report.fnum truth;
          Report.fnum (hi_with ~tighten:false q);
          Report.fnum (hi_with ~tighten:true q);
        ])
      queries
  in
  Report.table
    ~header:[ "query"; "true SUM"; "hi (paper's U)"; "hi (clipped, ours)" ]
    rows

let ablation_overlap_scaling cfg =
  Report.section "Ablation: solve cost vs number of overlapping constraints";
  print_endline "  (the general path is exponential in the per-query overlap degree;";
  print_endline "   pushdown keeps that degree small in practice)";
  let missing =
    Pc_synth.Sensor.generate (Rng.create cfg.seed) ~rows:(scaled cfg 4_000)
  in
  let queries =
    Querygen.random_queries (Rng.create (cfg.seed + 41)) missing
      ~attrs:[ "time" ] ~agg:(Querygen.Sum "light") ~n:10
  in
  let rows =
    List.map
      (fun k ->
        let set =
          Pc_set.make
            (Generate.rand_pcs
               (Rng.create (cfg.seed + 43))
               missing ~attrs:[ "time" ] ~n:k ())
        in
        let cells, stats = Cells.decompose set in
        let t0 = Pc_util.Clock.now () in
        List.iter (fun q -> ignore (Bounds.bound set q)) queries;
        let elapsed = Pc_util.Clock.elapsed_s ~since:t0 in
        [
          string_of_int k;
          string_of_int (List.length cells);
          string_of_int stats.Cells.sat_calls;
          Printf.sprintf "%.2f ms" (1000. *. elapsed /. float_of_int (List.length queries));
        ])
      [ 4; 8; 12; 16 ]
  in
  Report.table
    ~header:[ "overlapping PCs"; "cells (full domain)"; "solver calls"; "time per query" ]
    rows

let ext_advisor cfg =
  Report.section "Extension: partition-attribute advisor";
  print_endline "  (which attributes should the constraints partition on? scored by";
  print_endline "   actual bound tightness on a validation workload)";
  let missing =
    (sensor_split cfg ~fraction:0.5).Pc_synth.Missing.missing
  in
  let queries =
    Querygen.random_queries (Rng.create (cfg.seed + 47)) missing
      ~attrs:sensor_attrs ~agg:(Querygen.Sum "light") ~n:(max 20 (cfg.queries / 3))
  in
  let ranked =
    Pc_core.Advisor.rank missing
      ~candidates:[ "device"; "time"; "temperature"; "voltage" ]
      ~n:(n_pcs cfg) ~queries
  in
  Report.table ~header:[ "partition attributes"; "median over-estimation" ]
    (List.map
       (fun (s : Pc_core.Advisor.scored) ->
         [ String.concat ", " s.Pc_core.Advisor.attrs;
           Report.fnum s.Pc_core.Advisor.median_over_estimation ])
       ranked)

let ext_hybrid cfg =
  Report.section "Extension: PC + sampling hybrid (paper §7's 'best of both worlds')";
  print_endline "  (intersecting the hard range with a sampling CI: tighter than the";
  print_endline "   PC alone, far fewer failures than the CI alone)";
  let split = sensor_split cfg ~fraction:0.5 in
  let missing = split.Pc_synth.Missing.missing in
  let n = n_pcs cfg in
  let rng = Rng.create (cfg.seed + 37) in
  let set =
    Pc_set.make
      (Generate.corr_partition ~exact_counts:true missing ~attrs:sensor_attrs ~n ())
  in
  let sample = Pc_stats.Sample.uniform rng missing ~m:n in
  let statistical =
    Pc_stats.Ci.uniform_estimator ~name:"US-1p" ~method_:Pc_stats.Ci.Parametric
      ~confidence:0.99 ~sample ~n_total:(Relation.cardinality missing)
  in
  (* a *biased* sample (bottom half of the light values): its CLT interval
     often lands entirely outside the deterministically possible values —
     the case the hard range rescues *)
  let biased_sample =
    let sorted =
      Relation.sort_by
        (fun a b ->
          Float.compare (Pc_data.Value.as_num a.(2)) (Pc_data.Value.as_num b.(2)))
        missing
    in
    Pc_stats.Sample.uniform rng
      (Relation.take (Relation.cardinality missing / 4) sorted)
      ~m:n
  in
  let biased =
    Pc_stats.Ci.uniform_estimator ~name:"US-biased"
      ~method_:Pc_stats.Ci.Parametric ~confidence:0.99 ~sample:biased_sample
      ~n_total:(Relation.cardinality missing)
  in
  let hybrid name statistical =
    Pc_stats.Hybrid.estimator ~name
      ~hard:(Pc_stats.Hybrid.hard_of_pc_set set)
      ~statistical ()
  in
  let baselines =
    [
      Runner.of_pc_set "Corr-PC" set;
      Runner.of_estimator statistical;
      Runner.of_estimator (hybrid "Hybrid" statistical);
      Runner.of_estimator biased;
      Runner.of_estimator (hybrid "Hybrid-biased" biased);
    ]
  in
  let queries =
    Querygen.random_queries (Rng.create (cfg.seed + 38)) missing
      ~attrs:sensor_attrs ~agg:(Querygen.Sum "light") ~n:cfg.queries
  in
  let results = Runner.run ~baselines ~missing ~queries in
  Report.table ~header:[ "baseline"; "median over-est"; "failure rate" ]
    (List.map
       (fun (label, (s : Metrics.summary)) ->
         [
           label;
           Report.fnum s.Metrics.median_over_estimation;
           Report.fpct s.Metrics.failure_rate;
         ])
       results)

let all =
  [
    ("fig1", "extrapolation error vs missing fraction", fig1_extrapolation);
    ("fig3", "COUNT failure/tightness vs missing fraction", fig3_count);
    ("fig4", "SUM failure/tightness vs missing fraction", fig4_sum);
    ("tab1", "confidence-level trade-off", tab1_confidence_tradeoff);
    ("fig5", "sample-size sweep", fig5_sample_size);
    ("fig6", "noise robustness", fig6_noise);
    ("fig7", "cell decomposition optimizations", fig7_decomposition);
    ("fig8", "disjoint partition scaling", fig8_partition_scaling);
    ("fig9", "MIN/MAX/AVG tightness", fig9_min_max_avg);
    ("fig10", "Airbnb-like dataset", fig10_listings);
    ("fig11", "border-crossing-like dataset", fig11_border);
    ("fig12", "join bounds vs elastic sensitivity", fig12_joins);
    ("tab2", "failure census across datasets", tab2_failure_census);
    ("ablation_earlystop", "early-stop depth trade-off", ablation_earlystop);
    ("ablation_milp", "LP relaxation vs branch-and-bound", ablation_milp);
    ("ablation_tighten", "value-bound clipping", ablation_tighten);
    ("ext_hybrid", "PC + sampling hybrid estimator", ext_hybrid);
    ("ablation_overlap", "solve cost vs overlap degree", ablation_overlap_scaling);
    ("ext_advisor", "partition-attribute advisor", ext_advisor);
  ]
