(** The per-attribute cell helpers [Bounds.prepare] used before it built
    one region per cell, retained as a reference oracle.

    Each call folds the active PCs' ν ranges for one attribute with
    [List.assoc] and, under [tighten], rebuilds the cell's box from the
    query predicate and every active predicate — once per (cell ×
    attribute). The qcheck property in [test/test_pc_core.ml] checks
    {!Pc_core.Bounds.region} against these, cell by cell. *)

val cell_value_interval :
  tighten:bool ->
  Pc_core.Pc_set.t ->
  Pc_predicate.Pred.t ->
  int list ->
  string ->
  Pc_interval.Interval.t option
(** [cell_value_interval ~tighten set qpred active attr]: the most
    restrictive active value constraint on [attr] (the paper's
    U_i(a)/L_i(a)), clipped under [tighten] by the cell's box. [None]
    when the intersection, or under [tighten] the box, is empty. *)

val cell_inhabitable :
  tighten:bool -> Pc_core.Pc_set.t -> Pc_predicate.Pred.t -> int list -> bool
(** Every attribute some active PC constrains keeps a non-empty range;
    with no such attribute under [tighten], the cell's box is non-empty. *)
