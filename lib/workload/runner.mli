(** Experiment driver: evaluate a set of baselines on a workload of
    queries against the missing partition's ground truth.

    Protocol (§6.2): baselines summarize the missing partition in O(n)
    space; queries are answered about the missing rows only — for
    COUNT/SUM this is equivalent to combining with the certain partition's
    exact partial answer, which would shift both the truth and the
    interval by the same constant. *)

type baseline = {
  label : string;
  answer :
    Pc_query.Query.t ->
    Pc_core.Range.t option * Pc_core.Bounds.provenance option;
      (** estimate plus, for PC baselines, the degradation rung that
          produced it *)
}

val of_pc_set : string -> ?opts:Pc_core.Bounds.opts -> Pc_core.Pc_set.t -> baseline
(** [Empty]/[Infeasible] map to abstention. *)

val of_pc_set_budgeted :
  string ->
  ?opts:Pc_core.Bounds.opts ->
  spec:Pc_budget.Budget.spec ->
  Pc_core.Pc_set.t ->
  baseline
(** Like {!of_pc_set}, but every query runs under a fresh budget started
    from [spec] (budgets are single-shot), so per-query latency is capped
    and the recorded provenance shows how often the ladder degraded. *)

val of_estimator : Pc_stats.Estimator.t -> baseline

val run :
  baselines:baseline list ->
  missing:Pc_data.Relation.t ->
  queries:Pc_query.Query.t list ->
  (string * Metrics.summary) list
(** One summary per baseline, in input order. *)

val outcomes :
  baseline ->
  missing:Pc_data.Relation.t ->
  queries:Pc_query.Query.t list ->
  Metrics.outcome list
(** Per-query outcomes, in query order. Budgeted baselines start a
    fresh budget per query, so no query's budget affects another's. *)
