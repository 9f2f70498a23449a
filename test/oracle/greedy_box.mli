(** [Bounds.Greedy.prepare] as it was before the flat box table: each
    PC's in-query region is its predicate's [Box.of_pred] with the
    query's atoms conjoined by [Box.add_pred], and its value ranges come from
    [Pc.value_interval]. Retained as a reference oracle: the qcheck
    property in [test/test_pc_core.ml] checks the table-based cells
    against these, bit for bit. *)

val prepare :
  opts:Pc_core.Bounds.opts ->
  Pc_core.Pc_set.t ->
  Pc_query.Query.t ->
  (Pc_core.Bounds.Greedy.gcell list, Pc_core.Bounds.answer) result
