(** Sparse revised bounded-variable primal simplex over floats, with a
    factorized basis and a dual-simplex warm start.

    Solves [max/min c^T x] subject to linear constraints and box bounds
    [lo_j <= x_j <= hi_j]; the implicit domain is [x >= 0], so per-variable
    bounds are intersected with [[0, +inf)]. Phase 1 finds a basic
    feasible solution with artificial variables; phase 2 optimizes the
    real objective. Nonbasic variables rest at either bound, and a pivot
    can be a pure bound flip, so box constraints cost no tableau rows.

    {b Compile once, solve many times.} {!compile} validates a problem,
    canonicalizes its rows (rows whose indices already ascend with no
    zero pass through untouched) and lays out its CSC matrix with the
    slack and artificial columns. A {!compiled} value then serves any
    number of solves over the same rows, each with its own objective and
    variable boxes: {!solve_compiled} cold, {!solve_compiled_from} warm
    from a {!snapshot}. The [problem]-taking {!solve} is a
    compile-then-solve wrapper. A caller that
    knows its matrix column by column skips the row lists: {!of_columns}
    takes the CSC arrays as they are and finishes the layout through the
    same code as {!compile}.

    {b Workspace ownership.} A compiled value owns the solver's
    workspace — basis, statuses, basic values, work vectors, candidate
    arrays and the eta file — and every solve resets it instead of
    allocating one. Results ({!solution}, {!snapshot}) are fresh values
    and never alias it. The rule that makes this safe: {e one thread at a
    time uses a compiled value}. Compiled values live inside one
    [Bounds] call, one MILP solve, or one incremental engine used under
    its server's engine lock.

    Internally the basis inverse is a product-form eta file: each
    exchange appends one eta, and after {!refactor_interval} appended
    etas the file is rebuilt from the basis columns (which also
    recomputes the basic values, washing out float drift). Pricing is
    devex over a maintained candidate list, with a switch to Bland's rule
    after a stall, which guarantees termination. The pre-rework dense
    tableau survives as the test oracle [test/oracle/dense_tableau.ml],
    which the rewrite is property-tested against (see DESIGN.md, "Sparse
    revised simplex & basis factorization").

    {!solve_compiled_from} refactorizes a snapshot's basis under
    {e different} variable bounds, repairs dual feasibility, and
    re-optimizes with dual-simplex pivots — the hot path for
    branch-and-bound, where a child differs from its parent by a single
    tightened bound. The warm path falls back to a cold solve on any
    numeric trouble (singular basis, unrepairable statuses, pivot-cap
    overrun, failed self-check): soundness is never entrusted to the warm
    start alone.

    Tolerances come from {!Pc_util.Float_eps}; this is a float code and its
    answers are exact only up to those tolerances (see DESIGN.md).

    The solver never raises on resource pressure: hitting the iteration
    cap, a budget limit, or a failed post-solve self-check yields a
    structured {!Stopped} outcome that callers degrade on (see DESIGN.md,
    "Degradation ladder & budgets"). *)

type relop = Le | Ge | Eq

type constr = { coeffs : (int * float) list; op : relop; rhs : float }
(** Sparse row: [coeffs] pairs a variable index with its coefficient.
    Variable indices must be in [0, n_vars). Duplicate indices are
    canonicalized (summed once) at compile time, so
    [c_le [(0, 1.); (0, 1.)] 1.] means [2 x0 <= 1]. A row whose indices
    strictly ascend and that holds no zero compiles without a copy. *)

type problem = {
  n_vars : int;
  maximize : bool;
  objective : (int * float) list;  (** sparse; omitted indices are 0 *)
  constraints : constr list;
  var_bounds : (int * float * float) list;
      (** sparse [(j, lo, hi)] box bounds, intersected with the implicit
          [x_j >= 0] domain (and with each other when [j] repeats); [[]]
          leaves every variable at [[0, +inf)]. An empty box
          ([lo > hi] after intersection) makes the problem [Infeasible] —
          not an error. *)
}

type solution = {
  objective_value : float;
  values : float array;
  duals : float array;
      (** length m, one per constraint row in order: the final pricing
          vector [y] with [c_j = d_j + y·a_j] in the caller's objective *)
  reduced_costs : float array;
      (** length [n_vars]: [d_j = c_j - y·a_j], [0.] for basic columns.
          At an optimum a maximization has [d_j <= 0] on a variable at its
          lower bound and [d_j >= 0] at its upper bound (signs flip when
          minimizing), up to the pricing tolerance, and the objective
          equals [y·b + Σ d_j x_j]. *)
}

type stop_reason =
  | Iteration_limit  (** pivot cap (internal 1e6 or the budget's) hit *)
  | Deadline  (** the budget's wall-clock deadline passed *)
  | Numeric of string
      (** the post-solve self-check found residuals beyond tolerance: the
          tableau drifted and the "optimal" point cannot be trusted *)

type stop = {
  reason : stop_reason;
  best_objective : float option;
      (** objective value of the last feasible iterate when the solver
          stopped in phase 2 — a valid {e primal} value (a feasible
          point's objective, i.e. a lower bound when maximizing), never a
          bound on the optimum from the other side; [None] when the stop
          happened before feasibility was established *)
  iterations : int;
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Stopped of stop  (** resource exhaustion or numeric distrust *)

type snapshot
(** Compact basis snapshot: the final basic column set, the at-upper flags
    of the nonbasic columns, and the artificial column signs — everything
    needed to refactorize the basis under new bounds. Constant-size per
    row set; holds no factorization state. *)

type compiled
(** One validated, canonical row set in CSC form, with the workspace its
    solves reuse. Used by one thread at a time. *)

val refactor_interval : int
(** Appended-eta budget between refactorizations: once a factorization has
    accumulated this many eta updates since it was last rebuilt, the next
    pivot triggers a rebuild (counted in [lp.refactorizations]). Exposed
    so tests can construct solves guaranteed to cross the threshold. *)

val compile : problem -> compiled
(** Validate [problem] and lay out its rows. Raises [Invalid_argument]
    on malformed input (bad indices, non-finite coefficients, NaN
    bounds) — caller bugs, not hard instances. Only [n_vars] and
    [constraints] are kept; every solve supplies its objective and
    boxes. *)

(** {2 Column-major programs}

    A row set given straight in the compiled layout, for a caller that
    knows its columns and would otherwise build [constr] lists only for
    {!compile} to flatten. {!compile} lays its rows out into the same
    arrays and finishes through the same code. *)

type columns = {
  row_ops : relop array;  (** one per row *)
  row_rhs : float array;  (** one per row *)
  col_start : int array;
      (** length [n_vars + 1], from [0], non-decreasing: column [j]'s
          entries are [col_start.(j)] to [col_start.(j + 1) - 1] *)
  col_rows : int array;  (** each entry's row; strictly ascending within a column *)
  col_vals : float array;  (** each entry's coefficient: finite, non-zero *)
}

val of_columns : columns -> compiled
(** Validate [columns] and finish their layout. The compiled value takes
    the arrays over: do not mutate them afterwards. Raises
    [Invalid_argument] on malformed input, as {!compile}. Equal to
    {!compile} of the same rows, array for array. *)

val prepend_row : columns -> coeffs:float array -> relop -> float -> columns
(** [prepend_row c ~coeffs op rhs]: [c] with a new first row
    [Σ coeffs.(j)·x_j op rhs] over the leading [Array.length coeffs]
    columns (zeros skipped), every other row moved down by one. [c] is
    not changed. *)

val objective_vector : problem -> float array
(** [problem.objective] as a dense, canonical vector of length
    [n_vars] — the per-solve form {!solve_compiled} takes. *)

val bounds_of_problem : problem -> float array * float array
(** [problem.var_bounds] as dense [(lo, hi)] of length [n_vars], repeated
    entries intersected; unboxed variables read [[0, +inf)]. *)

val solve_compiled :
  ?budget:Pc_budget.Budget.t ->
  compiled ->
  maximize:bool ->
  objective:float array ->
  bounds:float array * float array ->
  outcome * snapshot option
(** Cold two-phase solve of the compiled rows under a dense [objective]
    and dense boxes [bounds = (lo, hi)], each of length [n_vars] (the
    arrays are read, not kept). Returns a basis snapshot on [Optimal]
    and [None] otherwise. Resource pressure is reported as [Stopped],
    never an exception. Every [Optimal] outcome has passed the
    post-solve self-check. *)

val solve_compiled_from :
  ?budget:Pc_budget.Budget.t ->
  compiled ->
  snapshot:snapshot ->
  maximize:bool ->
  objective:float array ->
  bounds:float array * float array ->
  outcome * snapshot option
(** Warm re-solve: restore [snapshot]'s basis under the new [bounds],
    repair dual feasibility, and re-optimize with dual-simplex pivots.
    The snapshot must come from a solve of the same rows and objective;
    only the variable bounds may differ. Falls back to a cold solve
    internally on shape mismatch or numeric trouble (counted in
    [lp.warm_fallbacks]), so the outcome is always as trustworthy as a
    cold solve. *)

val solve : ?budget:Pc_budget.Budget.t -> problem -> outcome
(** [compile] then a cold solve under [problem]'s objective and boxes. *)

val check_solution : problem -> solution -> (unit, string) result
(** Post-solve self-check: every constraint satisfied, every variable
    within its box, and the objective consistent with a recomputation from
    [values], within {!Pc_util.Float_eps} tolerances scaled by row
    magnitude. [solve] runs this on every optimal answer and degrades to
    [Stopped (Numeric _)] when it fails. *)

(** Constraint construction helpers. *)

val c_le : (int * float) list -> float -> constr
val c_ge : (int * float) list -> float -> constr
val c_eq : (int * float) list -> float -> constr

(**/**)

(** The compiled arrays, shared with the compiled value: read them right
    after compiling, since a solve stamps the artificials' coefficients.
    Only for tests that compare {!of_columns} with {!compile}. *)
module For_tests : sig
  type layout = {
    structural : columns;
    single_rows : int array;  (** per slack, then artificial column: its row *)
    single_vals : float array;  (** ... and its coefficient *)
    slack_cols : int array;  (** per row: its slack column, [-1] for an equality *)
  }

  val layout : compiled -> layout
end
