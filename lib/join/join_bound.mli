(** Upper bounds for aggregates over natural joins of relations with
    missing rows described by predicate-constraints (paper §5).

    Each joined table carries a PC set for its missing partition. The
    single-table machinery yields per-table COUNT/SUM upper bounds; the
    Generalized Weighted Entropy inequality combines them:

    SUM(A) over the join ≤ SUM_ub(R_a) × Π_{i≠a} COUNT_ub(R_i)^cᵢ

    where c is a fractional edge cover with c_a = 1 (equation (**)).
    COUNT uses the plain AGM form Π COUNT_ub(R_i)^cᵢ.

    All entry points accept an optional {!Pc_budget.Budget.t}. One budget
    caps the whole join bound: every per-table degradation ladder and the
    edge-cover LP draw from the same pool, and starvation only loosens
    the result (per-table bounds step down their ladder; a starved cover
    LP falls back to the plain product bound). The [_budgeted] variants
    additionally report the worst per-table provenance. *)

type table = {
  name : string;  (** must match a hypergraph relation *)
  join_attrs : string list;
  pcs : Pc_core.Pc_set.t;  (** constraints on the table's missing rows *)
  where_ : Pc_predicate.Pred.t;
      (** per-table selection predicate, pushed below the join into the
          single-table bounds; [Pred.tt] when absent *)
}

type bounded = { value : float; provenance : Pc_core.Bounds.provenance }
(** A bound value tagged with the worst degradation rung that produced
    any of its per-table ingredients. *)

val table :
  ?where_:Pc_predicate.Pred.t ->
  name:string ->
  join_attrs:string list ->
  Pc_core.Pc_set.t ->
  table

val count_upper :
  ?opts:Pc_core.Bounds.opts -> ?budget:Pc_budget.Budget.t -> table -> float
(** COUNT upper bound of one table's missing partition. *)

val count_bound :
  ?opts:Pc_core.Bounds.opts ->
  ?budget:Pc_budget.Budget.t ->
  table list ->
  float
(** GWE/AGM bound on |⋈ tables|. Per-table bounds run in list order; a
    shared [budget] is spent by the tables in that order. *)

val count_bound_budgeted :
  ?opts:Pc_core.Bounds.opts ->
  ?budget:Pc_budget.Budget.t ->
  table list ->
  bounded

val sum_bound :
  ?opts:Pc_core.Bounds.opts ->
  ?budget:Pc_budget.Budget.t ->
  table list ->
  agg:string * string ->
  float
(** [sum_bound tables ~agg:(table_name, attr)] bounds SUM(attr) over the
    natural join, fixing the aggregate relation's cover coefficient to 1. *)

val sum_bound_budgeted :
  ?opts:Pc_core.Bounds.opts ->
  ?budget:Pc_budget.Budget.t ->
  table list ->
  agg:string * string ->
  bounded

val naive_count_bound :
  ?opts:Pc_core.Bounds.opts -> ?budget:Pc_budget.Budget.t -> table list -> float
(** The Cartesian-product bound of §5.1 — kept as the baseline the GWE
    bound improves on. *)

val product_pc_set : Pc_core.Pc_set.t -> Pc_core.Pc_set.t -> Pc_core.Pc_set.t
(** §5.1's direct-product construction: pairwise conjunction of
    predicates, concatenated value constraints, multiplied frequency
    bounds. The result describes the join of the two missing partitions
    when attribute names are disjoint (enforced). *)
