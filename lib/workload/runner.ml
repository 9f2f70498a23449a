module Q = Pc_query.Query
module Bounds = Pc_core.Bounds
module B = Pc_budget.Budget

type baseline = {
  label : string;
  answer : Q.t -> Pc_core.Range.t option * Bounds.provenance option;
}

let range_of = function
  | Bounds.Range r -> Some r
  | Bounds.Empty | Bounds.Infeasible -> None

let of_pc_set label ?opts set =
  {
    label;
    answer =
      (fun query ->
        let o = Bounds.bound_budgeted ?opts set query in
        (range_of o.Bounds.answer, Some o.Bounds.stats.Bounds.provenance));
  }

(* Budgets are single-shot, so each query starts a fresh one from the
   spec: the caps are per-query, making workload timing predictable. *)
let of_pc_set_budgeted label ?opts ~spec set =
  {
    label;
    answer =
      (fun query ->
        let budget = B.start spec in
        let o = Bounds.bound_budgeted ?opts ~budget set query in
        (range_of o.Bounds.answer, Some o.Bounds.stats.Bounds.provenance));
  }

let of_estimator (e : Pc_stats.Estimator.t) =
  {
    label = e.Pc_stats.Estimator.name;
    answer = (fun query -> (e.Pc_stats.Estimator.estimate query, None));
  }

let outcomes baseline ~missing ~queries =
  List.map
    (fun query ->
      let estimate, provenance = baseline.answer query in
      Metrics.outcome ?provenance ~truth:(Q.eval missing query) ~estimate ())
    queries

let run ~baselines ~missing ~queries =
  List.map
    (fun b -> (b.label, Metrics.summarize (outcomes b ~missing ~queries)))
    baselines
