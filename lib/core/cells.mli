(** Cell decomposition (paper §4.1): split possibly-overlapping predicates
    into disjoint satisfiable cells.

    A cell is identified by its non-empty set of *active* constraints A:
    its region is [Q ∧ (∧_{i∈A} ψᵢ) ∧ (∧_{i∉A} ¬ψᵢ)], where [Q] is the
    target query's predicate (pushdown, Optimization 1). The all-negative
    cell is excluded by closure. Strategies:

    - [Naive]: test all 2ⁿ − 1 subsets (paper's baseline; n ≤ 24 enforced).
    - [Dfs]: depth-first over predicates, pruning unsatisfiable prefixes
      (Optimization 2) — one solver search per surviving extension.
    - [Dfs_rewrite]: additionally uses the rewrite rule
      "X sat ∧ (X∧ψ unsat) ⟹ X∧¬ψ sat" to skip solver calls
      (Optimization 3).
    - [Early_stop k]: prune with DFS for the first [k] levels only and
      admit every deeper cell unchecked (Optimization 4) — may yield
      false-positive cells, which loosen but never invalidate the bounds.
    - [Fdd]: compile the predicate set into a hash-consed interval
      decision diagram ({!Pc_predicate.Fdd}) and read the satisfiable
      cells off the reachable leaves — zero solver searches, and the
      compiled diagram can be built once per PC set and reused across
      queries via the [?fdd] argument. Output-identical to
      [Dfs_rewrite] (same cells, same order); the DFS decomposer
      remains the qcheck reference oracle.

    The DFS strategies are {e incremental}: instead of re-solving the
    whole prefix CNF at each node (O(depth²) atom work per path), they
    keep the solved form of each prefix on one frame stack of the set's
    box table ({!Box_table.frames}) — a positive extension meets the
    row's cached hull, a negative one tests the row's compiled negated
    clause, and a cached witness certifies most branches without any
    search (≈O(depth) atom work per path). [Dfs_rewrite] exploits this
    fully; plain [Dfs] keeps its eager one-search-per-extension
    accounting so Figure 7's strategy comparison stays meaningful.

    {!regions} builds each cell's region (§4.1's [L_i(a), U_i(a)]) on
    the way: each DFS level carries the meet of its chosen PCs' rows, so
    a cell costs one pass over the table's columns instead of one per
    active PC. *)

type strategy = Naive | Dfs | Dfs_rewrite | Early_stop of int | Fdd

type stats = {
  sat_calls : int;  (** satisfiability-solver searches *)
  atom_ops : int;
      (** atom-level box operations performed by the solver — the
          machine-level measure of decomposition effort. Both counts are
          this decomposition's own; they are added to
          {!Pc_predicate.Sat.calls} and the [sat.atom_ops] counter once it
          ends. *)
  n_cells : int;  (** satisfiable (or admitted) cells *)
  admitted_unchecked : int;
      (** cells admitted without a solver check after the budget's
          SAT-call pool ran dry (dynamic early stop — same soundness as
          [Early_stop]: only loosens) *)
  witness_hits : int;
      (** DFS decisions certified by a live witness, with no search *)
  elapsed : float;  (** wall-clock seconds (monotonic) *)
}

exception Enumeration_guard of int
(** [Naive] or [Early_stop] would enumerate more than 2²⁴ cells over
    this many PCs; the caller is expected to degrade as on exhaustion. *)

val decompose :
  ?budget:Pc_budget.Budget.t ->
  ?fdd:Pc_predicate.Fdd.compiled ->
  ?strategy:strategy ->
  ?query_pred:Pc_predicate.Pred.t ->
  Pc_set.t ->
  int list list * stats
(** Each cell is its active set: indices into the PC set, ascending and
    non-empty. [?fdd] (only consulted by the [Fdd] strategy) supplies a diagram
    precompiled from exactly this PC set, skipping the per-call compile;
    a size mismatch falls back to compiling fresh.

    Budget semantics: exhausting the SAT-call pool switches to admitting
    cells unchecked (bounded by an internal ceiling); exhausting the cell
    cap or the deadline raises {!Pc_budget.Budget.Exhausted} — past those
    there is no sound way to keep enumerating, and the caller is expected
    to degrade to a decomposition-free bound. Raises {!Enumeration_guard}
    when [Naive] or [Early_stop] would enumerate more than 2²⁴ cells, and
    [Box]'s [Invalid_argument] when the set's predicates (building its
    table) or the query use one attribute as both kinds. *)

val strategy_name : strategy -> string

val regions :
  ?budget:Pc_budget.Budget.t ->
  ?fdd:Pc_predicate.Fdd.compiled ->
  ?strategy:strategy ->
  tighten:bool ->
  query:Box_table.query ->
  query_pred:Pc_predicate.Pred.t ->
  Pc_set.t ->
  (int list -> Box_table.acc -> unit) ->
  stats
(** [regions ~tighten ~query ~query_pred set keep]: {!decompose}, with
    each cell's region built on the way down ({!Box_table.regions}):
    [keep active region] is called, in emission order, for each cell
    whose region is inhabitable. [region] is overwritten by the next
    cell. [query] is [Box_table.query (Pc_set.table set)
    query_pred]. The DFS strategies meet one PC's rows per positive step;
    [Naive] and [Fdd], which walk no shared prefix, meet each cell's
    rows from level 0. The same cells are emitted and charged, with the
    same stats, as by {!decompose}; cells that fail the region tests are
    dropped after. *)
