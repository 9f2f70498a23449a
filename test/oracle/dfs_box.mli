(** [Cells]' incremental DFS as it was before it ran on the flat box
    table: an immutable solver state of [Box.t]s ([box], [pending],
    [witness]) threaded down the recursion, with the [Dfs], [Dfs_rewrite]
    and [Early_stop] bodies and the budget adapter they used. Retained as
    a reference oracle: the qcheck property in [test/test_pc_core.ml]
    checks the frame DFS against it in cells (active sets), their order
    and every [stats] field but [elapsed]. *)

val decompose :
  ?budget:Pc_budget.Budget.t ->
  strategy:Pc_core.Cells.strategy ->
  query_pred:Pc_predicate.Pred.t ->
  Pc_core.Pc_set.t ->
  int list list * Pc_core.Cells.stats
(** [strategy] is [Dfs], [Dfs_rewrite] or [Early_stop _]; raises
    [Invalid_argument] on the others. *)
