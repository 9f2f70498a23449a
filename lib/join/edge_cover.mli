(** Fractional edge cover via linear programming (paper §5.2).

    A fractional edge cover assigns cᵢ ≥ 0 to each relation such that
    every attribute is covered: Σ_{i ∋ s} cᵢ ≥ 1. Minimizing
    Σ cᵢ·log(wᵢ) gives the tightest GWE/AGM-style product bound
    Π wᵢ^cᵢ. *)

type cover = (string * float) list
(** Relation name → cᵢ. *)

val solve :
  ?budget:Pc_budget.Budget.t ->
  ?fixed:(string * float) list ->
  weights:(string * float) list ->
  Hypergraph.t ->
  cover option
(** [solve ~weights hg] minimizes [Σ cᵢ·log wᵢ] over fractional edge
    covers. [fixed] pins selected coefficients (e.g. [c_a = 1] for the
    SUM-bearing relation). Weights must be ≥ 1 — entries below 1 are
    clamped to 1, which can only loosen the bound. [None] when no cover
    exists (an attribute not covered even with every cᵢ free, which
    cannot happen for well-formed hypergraphs), when the LP fails, or
    when [budget] starves the LP before optimality — callers must fall
    back to a cover-free product bound. *)

val product_bound : weights:(string * float) list -> cover -> float
(** [Π wᵢ^cᵢ]. *)
