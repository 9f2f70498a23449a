(** Reference oracles for cell regions.

    {!cnf} rebuilds a cell's region from its active set: a cell carries
    nothing else. {!cell_value_interval} and {!cell_inhabitable} are the
    per-attribute helpers [Bounds.prepare] used before it built one
    region per cell. Each call folds the active PCs' ν ranges for one
    attribute with [List.assoc] and, under [tighten], rebuilds the
    cell's box from the query predicate and every active predicate —
    once per (cell × attribute).

    {!cell} and {!region} are the one-region-per-cell build that came
    next and that the decomposition's own regions
    ({!Pc_core.Cells.regions}) replaced: per cell, every active PC's ν
    row and hull row met again over a flat table. The qcheck properties
    in [test/test_pc_core.ml] check {!region} against the per-attribute
    helpers and the decomposition's regions against {!region}, bit for
    bit. *)

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

(** {2 One region per cell} *)

type table
(** The set's ν ranges and predicate hulls over the columns of its
    {!Pc_core.Box_table}, one row per PC of the set (its own indices,
    whatever rows a filtered set shares), plus each satisfiable PC's
    categorical atoms. *)

val table : Pc_core.Pc_set.t -> table

type query

val query : table -> Pc_predicate.Pred.t -> query

type acc

val acc : table -> acc
val get : acc -> int -> Pc_interval.Interval.t

val cell : table -> tighten:bool -> query -> acc -> acc -> int list -> bool
(** [cell t ~tighten q values clip active]: into [values], per column,
    the meet of the active ν rows and, under [tighten], the query met
    with each active hull row (built in [clip]); [false] when some range
    or the box is empty, an active predicate is unsatisfiable or the
    categorical atoms clash. Every active PC's rows are met again for
    each cell. *)

type region

val region :
  tighten:bool -> Pc_core.Pc_set.t -> Pc_predicate.Pred.t -> int list -> region option
(** {!cell} for one cell of the set under query predicate [qpred];
    [None] when it fails. *)

val region_interval : region -> string -> Pc_interval.Interval.t
(** One attribute's range over the cell's rows: its column's, or for an
    attribute without a column the query's under [tighten] and
    [Interval.full] otherwise. *)
