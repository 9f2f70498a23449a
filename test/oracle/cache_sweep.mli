(** The delta-scoped invalidation test [Pc_server.Cache.invalidate]
    used before its hull prefilter, retained as a reference oracle.

    It tests every cached entry against every batch row with the
    by-name [Eval_oracle.pred_eval], with no per-batch hulls and no
    compiled selections. The qcheck property in [test/test_ingest.ml] checks that the cache
    evicts exactly the entries this sweep calls affected. *)

val affected :
  touched:int list ->
  rows:(Pc_data.Schema.t * Pc_data.Relation.tuple array) option ->
  Pc_server.Cache.meta ->
  bool
(** Missing side: [touched] meets the entry's reachable PCs. Certain
    side (skipped for [missing_only] entries): some row satisfies the
    selection, or evaluating it raises. *)
