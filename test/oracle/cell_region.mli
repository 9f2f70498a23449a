(** Reference oracles for cell regions.

    {!cnf} rebuilds a cell's region from its active set: a cell carries
    nothing else. The other two are the per-attribute helpers
    [Bounds.prepare] used before it built one region per cell. Each call
    folds the active PCs' ν ranges for one attribute with
    [List.assoc] and, under [tighten], rebuilds the cell's box from the
    query predicate and every active predicate — once per (cell ×
    attribute). The qcheck property in [test/test_pc_core.ml] checks
    {!Pc_core.Bounds.region} against those two, cell by cell. *)

val cnf : Pc_core.Pc_set.t -> Pc_predicate.Pred.t -> int list -> Pc_predicate.Cnf.t
(** [cnf set qpred active]: the region of the cell whose ascending
    active set is [active] under query predicate [qpred], as CNF —
    [qpred]'s, then each PC's predicate or its negation in index order,
    every conjunct put in front, as [Cells]' DFS once built it. *)

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
