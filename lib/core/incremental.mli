(** Incremental bound maintenance across streaming ingestion.

    An engine holds the COUNT/SUM allocation program of one (PC set,
    query) pair, built {e once} by {!Bounds.program} — the same builder
    the full path uses — and compiled once ({!Pc_lp.Simplex.compile}) in
    {!create}. It re-solves those rows across append/retract batches
    from the previous optimum's basis snapshot
    ({!Pc_lp.Simplex.solve_compiled_from}), with {e pure variable-bound}
    changes.

    The trick that keeps every ingestion step inside the warm solve's
    bounds-only contract: per-PC consumption is not a right-hand-side
    update. Each PC [j] covering several in-query cells gets an auxiliary
    variable [w_j] with coefficient [+1] in its frequency rows, pinned by
    its box to the consumed count [w_j = min(c_j, ku_j)]; a PC covering
    one cell bounds that cell's box to [[(kl_j−c_j)⁺, (ku_j−c_j)⁺]].
    Appending a certain row that the FDD routes to active set A bumps
    [c_j] for every j ∈ A, which changes only variable boxes — the rows
    and objective never change, so the basis snapshot stays reusable and
    a re-bound costs a handful of dual-simplex pivots instead of a cold
    decomposition + MILP.

    Equivalence with the from-scratch path (qcheck-pinned in
    [test_ingest], values and exactness flags): fixing
    [w_j = min(c_j, ku_j)] makes the ≤ row [Σ x_i ≤ max 0 (ku_j − c_j)]
    and the ≥ row [Σ x_i ≥ kl_j − min(c_j, ku_j)] — exactly the frequency
    range of the residual PC set [{(kl−c)⁺ ∧ ku', ku' = (ku−c)⁺}] that a
    full recompute sees.

    Exactness: when the LP optimum assigns integral counts to every cell
    it coincides with the MILP optimum. Otherwise the engine runs
    {!Pc_milp.Milp.solve_compiled} on the same rows under the current
    boxes, as the full path does, so a warm answer is as exact as a cold
    one. Engines are single-threaded by design (the compiled rows own one
    solver workspace); the server serializes access per dataset. *)

type t

val create :
  ?tighten:bool ->
  ?budget:Pc_budget.Budget.t ->
  fdd:Pc_predicate.Fdd.compiled ->
  Pc_set.t ->
  Pc_query.Query.t ->
  t option
(** Build the engine, or [None] when the instance is out of scope and
    the caller must use the full {!Bounds} path: a non-COUNT/SUM
    aggregate, a diagram whose size disagrees with [set], an unbounded
    value interval in the objective, or a system infeasible at zero
    consumption (the full path reports it). The decomposition is charged
    to [budget], as in {!Bounds.program}. No LP is solved here; the
    first {!rebound} is the cold solve. *)

val supported : Pc_query.Query.t -> bool
(** The aggregate shapes an engine can maintain (COUNT and SUM). *)

val n_cells : t -> int
(** In-query inhabitable cells (LP structural variables). *)

val rebound :
  ?budget:Pc_budget.Budget.t ->
  t ->
  consumed:int array ->
  Bounds.answer option
(** Missing-partition bound under per-PC consumption [consumed] (length
    = PC-set size, as maintained by [Pc_store.Stream]). Warm-starts from
    the previous call's basis when one exists; the underlying solver
    falls back to a cold solve on any numeric trouble. Pivots and
    branch-and-bound nodes are charged to [budget] (default: none).
    [None] when the solver was starved or [consumed] has the wrong
    length — callers fall back to the full path. The certain-partition
    shift is the caller's job: pass the engine to
    {!Bounds.bound_budgeted}'s [warm]. *)
