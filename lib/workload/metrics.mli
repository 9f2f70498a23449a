(** Scoring of estimated result ranges against ground truth: the paper's
    two quantities (§6.1) — failure rate (truth escapes the interval) and
    median over-estimation rate (interval top / truth, tightness) — plus
    degradation accounting when bounds run under a budget. *)

type outcome = {
  truth : float option;  (** [None] when the aggregate is undefined *)
  estimate : Pc_core.Range.t option;  (** [None] when the baseline abstains *)
  provenance : Pc_core.Bounds.provenance option;
      (** which degradation-ladder rung produced the estimate; [None] for
          baselines that don't report one *)
}

val outcome :
  ?provenance:Pc_core.Bounds.provenance ->
  truth:float option ->
  estimate:Pc_core.Range.t option ->
  unit ->
  outcome

type summary = {
  queries : int;  (** outcomes with a defined truth *)
  failures : int;
  failure_rate : float;  (** percent *)
  median_over_estimation : float;
      (** median of hi/truth over queries with positive truth; [nan] when
          none qualify *)
  mean_over_estimation : float;
  degraded : int;
      (** outcomes answered below the [Exact] rung (over all outcomes,
          including truth-less ones) *)
  by_provenance : (Pc_core.Bounds.provenance * int) list;
      (** non-zero rung counts, [Exact] first *)
}

val summarize : outcome list -> summary
