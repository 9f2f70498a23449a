open Pc_workload
module Q = Pc_query.Query
module Atom = Pc_predicate.Atom
module Range = Pc_core.Range
module Relation = Pc_data.Relation

let tc = Alcotest.test_case

let schema =
  Pc_data.Schema.of_names
    [ ("t", Pc_data.Schema.Numeric); ("v", Pc_data.Schema.Numeric) ]

let relation rng n =
  Relation.create schema
    (List.init n (fun _ ->
         [|
           Pc_data.Value.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:100.);
           Pc_data.Value.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:10.);
         |]))

(* ----------------------------- querygen ----------------------------- *)

let test_querygen_shape () =
  let rng = Pc_util.Rng.create 1 in
  let rel = relation rng 500 in
  let queries =
    Querygen.random_queries rng rel ~attrs:[ "t" ] ~agg:(Querygen.Sum "v") ~n:50
  in
  Alcotest.(check int) "count" 50 (List.length queries);
  List.iter
    (fun (q : Q.t) ->
      Alcotest.(check bool) "sum agg" true (q.Q.agg = Q.Sum "v");
      Alcotest.(check int) "one atom" 1 (List.length q.Q.where_);
      match q.Q.where_ with
      | [ Atom.Num_range ("t", iv) ] ->
          let lo = Pc_interval.Interval.lo_float iv in
          let hi = Pc_interval.Interval.hi_float iv in
          Alcotest.(check bool) "window inside domain" true (lo >= 0. && hi <= 100.5);
          let width = hi -. lo in
          Alcotest.(check bool) "selectivity respected" true
            (width >= 0.05 *. 100. -. 1e-6 && width <= 0.3 *. 100. +. 1e-6)
      | _ -> Alcotest.fail "unexpected predicate")
    queries

let test_querygen_validation () =
  let rng = Pc_util.Rng.create 2 in
  let rel = relation rng 100 in
  Alcotest.(check bool) "bad selectivity" true
    (try
       ignore
         (Querygen.random_queries ~selectivity:(0.5, 0.2) rng rel ~attrs:[ "t" ]
            ~agg:Querygen.Count ~n:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------ metrics ----------------------------- *)

let test_metrics () =
  let outcomes =
    [
      Metrics.outcome ~truth:(Some 10.) ~estimate:(Some (Range.make 5. 20.)) ();
      Metrics.outcome ~provenance:Pc_core.Bounds.Trivial ~truth:(Some 10.)
        ~estimate:(Some (Range.make 11. 20.)) ();
      Metrics.outcome ~truth:(Some 10.) ~estimate:None ();
      Metrics.outcome ~truth:None ~estimate:None ();
    ]
  in
  let s = Metrics.summarize outcomes in
  Alcotest.(check int) "scored queries" 3 s.Metrics.queries;
  Alcotest.(check int) "failures" 2 s.Metrics.failures;
  Alcotest.(check (float 1e-9)) "rate" (200. /. 3.) s.Metrics.failure_rate;
  (* over-estimation uses hi/truth: (20/10, 20/10) -> median 2 *)
  Alcotest.(check (float 1e-9)) "median over" 2. s.Metrics.median_over_estimation;
  Alcotest.(check int) "degraded count" 1 s.Metrics.degraded

let test_metrics_empty () =
  let s = Metrics.summarize [] in
  Alcotest.(check int) "no queries" 0 s.Metrics.queries;
  Alcotest.(check (float 0.)) "zero rate" 0. s.Metrics.failure_rate;
  Alcotest.(check bool) "nan over" true (Float.is_nan s.Metrics.median_over_estimation)

(* Regression: an empty workload's nan medians must serialize as JSON
   null, not as a bare nan token that poisons the whole document. The
   parser rejects bare nan/inf tokens; the decoded members must be
   [Null]. *)
let test_report_json_no_nan () =
  let s = Metrics.summarize [] in
  let json = Report.json_of_summary s in
  match Pc_obs.Json.parse json with
  | Error msg -> Alcotest.failf "summary JSON invalid: %s" msg
  | Ok v ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " is null") true
            (Pc_obs.Json.member key v = Some Pc_obs.Json.Null))
        [ "median_over_estimation"; "mean_over_estimation" ]

(* ------------------------------ runner ------------------------------ *)

let test_runner_pc_never_fails () =
  let rng = Pc_util.Rng.create 3 in
  let missing = relation rng 300 in
  let set =
    Pc_core.Pc_set.make
      (Pc_core.Generate.corr_partition missing ~attrs:[ "t" ] ~n:10 ())
  in
  let queries =
    Querygen.random_queries rng missing ~attrs:[ "t" ] ~agg:(Querygen.Sum "v") ~n:40
  in
  let results =
    Runner.run ~baselines:[ Runner.of_pc_set "PC" set ] ~missing ~queries
  in
  match results with
  | [ ("PC", s) ] ->
      Alcotest.(check int) "zero failures" 0 s.Metrics.failures;
      Alcotest.(check bool) "over-estimation at least 1" true
        (s.Metrics.median_over_estimation >= 1. -. 1e-9)
  | _ -> Alcotest.fail "unexpected results"

let test_runner_labels_in_order () =
  let rng = Pc_util.Rng.create 4 in
  let missing = relation rng 100 in
  let trivial label = { Runner.label; answer = (fun _ -> (None, None)) } in
  let results =
    Runner.run
      ~baselines:[ trivial "a"; trivial "b"; trivial "c" ]
      ~missing
      ~queries:[ Q.count () ]
  in
  Alcotest.(check (list string)) "order preserved" [ "a"; "b"; "c" ]
    (List.map fst results)

(* --------------------------- experiments ---------------------------- *)

let test_experiments_registry () =
  let ids = List.map (fun (id, _, _) -> id) Experiments.all in
  Alcotest.(check int) "nineteen experiments" 19 (List.length ids);
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " present") true (List.mem required ids))
    [ "fig1"; "fig3"; "fig4"; "tab1"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10"; "fig11"; "fig12"; "tab2" ];
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_experiment_smoke () =
  (* tiny-scale smoke run of a cheap experiment, output suppressed *)
  let cfg = { Experiments.seed = 1; scale = 0.02; queries = 5 } in
  let dev_null = open_out (Filename.null) in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel dev_null) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      close_out_noerr dev_null)
    (fun () ->
      Experiments.fig7_decomposition cfg;
      Experiments.fig12_joins cfg;
      Experiments.ablation_milp cfg)

let () =
  Alcotest.run "pc_workload"
    [
      ( "querygen",
        [
          tc "shape" `Quick test_querygen_shape;
          tc "validation" `Quick test_querygen_validation;
        ] );
      ( "metrics",
        [
          tc "summarize" `Quick test_metrics;
          tc "empty" `Quick test_metrics_empty;
          tc "json no nan" `Quick test_report_json_no_nan;
        ] );
      ( "runner",
        [
          tc "pc never fails" `Quick test_runner_pc_never_fails;
          tc "label order" `Quick test_runner_labels_in_order;
        ] );
      ( "experiments",
        [
          tc "registry" `Quick test_experiments_registry;
          tc "smoke" `Slow test_experiment_smoke;
        ] );
    ]
