(** The delta-scoped invalidation test [Pc_server.Cache.invalidate]
    made before it swept a flat per-entry layout, retained as a
    reference oracle.

    Per entry and batch it compiles the selection to the column and
    interval of each numeric atom, compares each interval with the
    batch's per-column hull through the boxed endpoints, and runs the
    exact row test only where no atom misses its hull. The qcheck
    property in [test/test_server.ml] checks that the cache evicts
    exactly the entries this test calls affected. *)

val affected :
  touched:int list ->
  rows:(Pc_data.Schema.t * Pc_data.Relation.tuple array) option ->
  Pc_server.Cache.meta ->
  bool
(** Missing side: [touched] meets the entry's reachable PCs. Certain
    side (skipped for [missing_only] entries): no numeric atom misses
    its column's hull, and some row satisfies the selection or
    evaluating it raises. *)

val row_tested :
  touched:int list ->
  rows:(Pc_data.Schema.t * Pc_data.Relation.tuple array) option ->
  Pc_server.Cache.meta ->
  bool
(** The entry reaches the exact row test: no touched PC reaches it, it
    reads the certain side, the batch has rows, and no numeric atom
    misses its column's hull (or the hull test is off). *)
