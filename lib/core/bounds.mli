(** Result ranges for aggregate queries over missing data (paper §4).

    Given a closed predicate-constraint set describing the missing
    partition R? and an aggregate query, computes the hard range of values
    the aggregate can take over any R? consistent with the constraints:
    cell decomposition, then a mixed-integer program allocating row counts
    to cells (Equation 2), with the paper's special cases — greedy
    solution for disjoint constraint sets, binary search for AVG, per-cell
    scan for MIN/MAX.

    Semantics of the aggregates:
    - COUNT/SUM: the range always exists (an empty R? gives 0).
    - AVG/MIN/MAX: undefined on an empty selection, so the answer is
      [Empty] when no consistent R? can place a row in the query region;
      otherwise the range is over consistent instances with at least one
      qualifying row.
    - [Infeasible] signals a constraint system no relation satisfies
      (e.g. a frequency lower bound on an unsatisfiable predicate).

    {2 Degradation ladder}

    Every entry point is total under resource pressure: when a
    {!Pc_budget.Budget.t} (or the solvers' internal caps) cuts a stage
    short, the computation steps down a ladder of sound
    over-approximations instead of raising —

    + exact MILP allocation ({!Exact}),
    + truncated branch-and-bound whose open-node dual bound stands in for
      the optimum ({!Relaxed}),
    + decomposition with unchecked admitted cells, as in
      [Cells.Early_stop] ({!Early_stopped}),
    + a decomposition- and solver-free interval from PC frequency caps ×
      value bounds ({!Trivial}).

    Each rung only loosens the range (see DESIGN.md, "Degradation ladder
    & budgets" for the per-rung soundness argument). {!bound_budgeted}
    reports which rung produced the answer, together with consumption
    stats. Provenance tracks budget-driven degradation relative to the
    configured {!opts}: an explicitly requested [Early_stop] strategy or
    small [node_limit] is the caller's chosen baseline and still reports
    [Exact] when the budget itself never intervened — except that a
    truncated MILP always reports at least [Relaxed]. *)

type answer = Range of Range.t | Empty | Infeasible

type provenance =
  | Exact  (** full-strength pipeline, optima proved *)
  | Relaxed  (** some MILP truncated: dual bounds, not proved optima *)
  | Early_stopped  (** decomposition admitted cells without checking *)
  | Trivial  (** frequency-caps × value-bounds floor *)

val provenance_name : provenance -> string

val provenance_order : provenance -> int
(** [Exact] = 0 … [Trivial] = 3; higher is more degraded. *)

val worst_provenance : provenance -> provenance -> provenance

type stats = {
  provenance : provenance;
  rungs : provenance list;
      (** the ladder rungs this call engaged, in ladder order: the head
          is always [Exact] (the full-strength attempt), each
          degradation event appends its rung, and the last entry equals
          [provenance]. A query that fell straight from the full attempt
          to the floor reads [[Exact; Trivial]]. Request-scoped
          telemetry (the server's flight recorder) records this walk
          per request. *)
  cells : int;  (** decomposition cells materialized *)
  sat_calls : int;  (** budget-charged satisfiability checks *)
  admitted_unchecked : int;  (** cells admitted after SAT-pool exhaustion *)
  milp_nodes : int;  (** branch-and-bound nodes expanded *)
  lp_iterations : int;  (** simplex pivots *)
  elapsed : float;  (** wall-clock seconds (monotonic) for this call *)
  deadline_hit : bool;  (** the budget's deadline expired at some point *)
}

type outcome = { answer : answer; stats : stats }

type opts = {
  strategy : Cells.strategy;
  node_limit : int;  (** MILP node budget; exceeding it only loosens bounds *)
  tighten : bool;
      (** also clip cell value bounds by predicate/query ranges on the
          aggregated attribute (sound strengthening of the paper's
          U_i(a) = min value-constraint bound) *)
  use_greedy : bool;
      (** use the O(n) greedy path when the predicates are disjoint
          (paper §4.2, "Faster Algorithm in Special Cases") *)
}

val default_opts : opts

val bound_budgeted :
  ?opts:opts ->
  ?budget:Pc_budget.Budget.t ->
  ?certain:Pc_data.Relation.t ->
  ?fdd:Pc_predicate.Fdd.compiled ->
  ?warm:(Pc_budget.Budget.t -> answer option) ->
  Pc_set.t ->
  Pc_query.Query.t ->
  outcome
(** Range of the aggregate with provenance and consumption stats. With
    [certain], ranges over R* ∪ R? as {!bound_with_certain}; without,
    over R? only. [budget] defaults to an unlimited one; budgets are
    single-shot, so pass a freshly {!Pc_budget.Budget.start}ed context per
    call unless deliberately capping a batch. Never raises on budget
    exhaustion — the answer degrades down the ladder instead.

    [fdd] supplies a diagram precompiled from exactly [set] (the server
    compiles one per dataset at load). Only consulted when
    [opts.strategy = Cells.Fdd]; under that strategy the set-level
    predicate pushdown is skipped so diagram indices stay aligned with
    the set — semantics-preserving, since non-overlapping PCs never
    reach a live cell.

    [warm] supplies the missing-partition COUNT/SUM range from a warm
    engine ({!Incremental.rebound}), charging its solves to the budget it
    is given. It is tried first; [None] falls back to the full path. The
    certain-partition shift, provenance and stats are computed as for
    any other answer. *)

val bound : ?opts:opts -> Pc_set.t -> Pc_query.Query.t -> answer
(** Range of the aggregate over the missing partition only
    ([{(bound_budgeted set q)} .answer] with an unlimited budget). *)

val bound_with_certain :
  ?opts:opts ->
  Pc_set.t ->
  certain:Pc_data.Relation.t ->
  Pc_query.Query.t ->
  answer
(** Range over R* ∪ R?: evaluates the query exactly on the certain
    partition and combines it with the missing-data range (§6.2's
    partial-ground-truth protocol). *)

(** {2 Cell regions}

    What the allocation program knows about the rows of one cell
    (paper §4.1): per value attribute, the intersection of the active
    PCs' ν ranges, the paper's [\[L_i(a), U_i(a)\]]. Under [tighten] it
    is also clipped by the box of the query predicate and the active
    predicates. {!bound} reads each cell's region off the decomposition
    ({!Cells.regions}), on the PC set's flat table ({!Pc_set.table},
    {!Box_table}): whether the cell is inhabitable and the aggregated
    attribute's range. The result is bit-identical to folding the
    intervals and boxes one by one: the table's meet keeps
    [Interval.intersect]'s tie rules. *)

(** {2 The allocation rows}

    Equation 2's frequency rows go to the simplex in its own
    column-major layout ({!Pc_lp.Simplex.of_columns}), with no row list
    in between. *)

val allocation_columns :
  cells:int list array ->
  kl:int array ->
  ku:int array ->
  consumption:bool ->
  Pc_lp.Simplex.columns
(** The rows of the program over cell variables [0, Array.length cells)
    whose cell [i] has the ascending active set [cells.(i)], for PCs
    with effective lower bounds [kl] and upper bounds [ku]. A PC that
    covers two or more cells has an upper row (≤ ku) and, when its kl
    is positive, a lower row (≥ kl) over its cells and, with
    [consumption], its own consumption column, numbered after the cells
    in PC order; every coefficient is 1. Rows are numbered from the last
    such PC to the first, a lower row just before its upper one: the
    order in which the row list this replaced was built. A PC covering
    one cell enters only through that cell's box. *)

(** {2 The greedy path}

    The paper's §4.2 special case for disjoint sets ("Faster Algorithm in
    Special Cases"), which {!bound} takes when [opts.use_greedy] holds and
    {!Pc_set.is_disjoint}: every PC overlapping the query is a cell of
    its own, and the allocation decouples per PC. *)

module Greedy : sig
  type gcell = {
    u : float;  (** the aggregated attribute's largest value; [1.] for COUNT *)
    l : float;  (** its smallest value *)
    kl : int;  (** effective lower bound under pushdown *)
    ku : int;
  }

  val prepare : opts:opts -> Pc_set.t -> Pc_query.Query.t -> (gcell list, answer) result
  (** One cell per PC whose predicate overlaps the query region and
      admits a valid row, in set order: its value range is the PC's ν
      met, under [tighten], with its predicate's box conjoined with the
      query, read off {!Pc_set.table}. [Error Infeasible] when a
      frequency lower bound cannot be met. *)

  val answer :
    gcell list -> Pc_query.Query.t -> c_count:float -> c_sum:float -> answer
  (** The range from the cells, over the missing partition plus [c_count]
      certain rows summing to [c_sum] (the caller combines MIN/MAX with
      the certain partition). *)
end

val avg_range : lo:float -> hi:float -> Range.t
(** The AVG answer from the outer ends of its two bisections ([lo] from
    the downward search, [hi] from the upward one). Both ends are
    inexact. When a numeric corner makes the searches cross by more than
    1e-6, the answer is their hull [[min lo hi, max lo hi]]: never
    narrower than either search. *)

(** {2 The allocation program for a warm engine}

    The COUNT/SUM program the full path solves, from the same builder,
    kept by {!Incremental} across ingestion. Per-PC consumption enters
    only through variable boxes ({!rebox}), so re-solving under new
    consumption is a pure bound change. *)

type allocation

type program = {
  alloc : allocation;
  cells : int;  (** in-query inhabitable cells: variables [0, cells) *)
  lp : Pc_lp.Simplex.compiled;
      (** the rows, compiled once; the variables are the cells, then the
          consumption columns. The engine that owns the program is its
          only user. *)
  obj_hi : float array;  (** dense: maximize Σ u_i x_i *)
  obj_lo : float array option;
      (** minimize Σ l_i x_i over the same rows; [None] when the empty
          instance minimizes *)
}

val program :
  ?tighten:bool ->
  ?budget:Pc_budget.Budget.t ->
  fdd:Pc_predicate.Fdd.compiled ->
  Pc_set.t ->
  Pc_query.Query.t ->
  program option
(** The program of a COUNT/SUM [query] over [set] with cells read from
    [fdd] (compiled from exactly [set]), charging the decomposition to
    [budget] (default: unlimited; exhaustion raises
    {!Pc_budget.Budget.Exhausted}). [None] when the system is
    infeasible at zero consumption or an objective coefficient is
    infinite: both need the full path's analysis. *)

val rebox :
  program -> consumed:int array -> lo:float array -> hi:float array -> bool
(** Fill the dense variable boxes [lo], [hi] (length
    [Array.length obj_hi]) for per-PC consumption [consumed] (length =
    PC-set size): each PC covering several cells has a consumption
    column pinned to [min(c, ku)]; a PC covering one cell bounds it to
    [[(kl−c)⁺, (ku−c)⁺]]. [false] when some box is empty: no instance is
    consistent with the constraints. *)
