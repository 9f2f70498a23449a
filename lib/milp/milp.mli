(** Mixed-integer linear programming by branch-and-bound over the
    {!Pc_lp.Simplex} relaxation.

    Node selection is best-bound-first, so when the node budget runs out
    the best open relaxation value is still a valid *dual bound* on the
    true optimum — exactly what a hard result range needs: the reported
    range can only get looser, never incorrect. Branching is
    most-fractional-variable; all variables are non-negative, and all are
    integer unless [integrality] says otherwise.

    Branching on [x_j <= floor v / x_j >= ceil v] is a pure bound
    tightening on the {!Pc_lp.Simplex} box, so every node's LP has the
    root's rows (no accumulated constraint rows): the rows are compiled
    once ({!Pc_lp.Simplex.compile}), by the caller of {!solve_compiled}
    or by {!solve} at the root, and every node solves that one compiled
    value under its own boxes. Each child re-optimizes from its parent's
    final basis snapshot with dual-simplex pivots
    ({!Pc_lp.Simplex.solve_compiled_from}). Pass [~warm:false] to force a
    cold LP solve per node — the reference the warm path is tested
    against. A search runs its nodes one after another on the compiled
    value's workspace, so the one-thread rule of
    {!Pc_lp.Simplex.compiled} holds for the whole search.

    There is no exception-raising path on this surface: resource
    exhaustion (per-call [node_limit], the budget's node pool, its
    deadline, or a starved LP underneath) either truncates the search —
    still [Optimal], with [truncated] set and [bound] a sound dual bound —
    or, when not even the root relaxation finished, reports {!Stopped}. *)

type result = {
  bound : float;
      (** Valid bound on the optimum in the optimization direction (an
          upper bound when maximizing). Equals the optimum when [exact]. *)
  incumbent : Pc_lp.Simplex.solution option;
      (** Best integral solution found, if any. *)
  exact : bool;
      (** The search closed the gap: [bound] is attained by [incumbent]. *)
  truncated : bool;
      (** The search stopped early (node/iteration/deadline budget); the
          dual [bound] is still sound, just possibly loose. *)
  nodes : int;  (** Branch-and-bound nodes expanded. *)
}

type outcome =
  | Optimal of result
  | Infeasible
  | Unbounded
  | Stopped of Pc_lp.Simplex.stop
      (** the root relaxation itself could not be solved within budget:
          no bound of any kind is available *)

val solve_compiled :
  ?budget:Pc_budget.Budget.t ->
  ?node_limit:int ->
  ?integrality:(int -> bool) ->
  ?warm:bool ->
  Pc_lp.Simplex.compiled ->
  maximize:bool ->
  objective:float array ->
  bounds:float array * float array ->
  outcome
(** Branch and bound over compiled rows, with a dense objective and
    dense root boxes [bounds = (lo, hi)] of length [n_vars] (read, not
    kept). [node_limit] defaults to 10_000 and is a per-call cap; the
    budget's node pool (if any) is shared across calls. [node_limit = 0]
    yields the root LP-relaxation dual bound ([truncated], no
    incumbent). [Unbounded] is reported when the relaxation is
    unbounded. [warm] (default [true]) warm-starts each child LP from its
    parent's basis; results are identical either way (the warm path
    cold-falls-back on any numeric doubt), only the pivot counts
    differ. *)

val solve :
  ?budget:Pc_budget.Budget.t ->
  ?node_limit:int ->
  ?integrality:(int -> bool) ->
  ?warm:bool ->
  Pc_lp.Simplex.problem ->
  outcome
(** {!solve_compiled} of [Pc_lp.Simplex.compile problem] under the
    problem's own objective and boxes. *)
