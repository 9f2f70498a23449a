(** Row evaluation as it was before predicates were compiled and
    relations cached their columns, kept as the oracle of what replaced
    it: atoms that look their attribute up by name on every row,
    [Query.eval] as a materialized selection folded by [Array.fold_left],
    and [Generate.rand_pcs] testing each PC's atoms row by row. The
    replacements must give the same answers, bit for bit, and raise the
    same exceptions. *)

val atom_eval : Pc_data.Schema.t -> Pc_predicate.Atom.t -> Pc_data.Relation.tuple -> bool
(** Raises [Not_found] on an absent attribute and [Invalid_argument] on
    a value of the wrong kind, when the row is tested. *)

val pred_eval : Pc_data.Schema.t -> Pc_predicate.Pred.t -> Pc_data.Relation.tuple -> bool
(** The atoms in order, stopping at the first that fails. *)

val query_eval : Pc_data.Relation.t -> Pc_query.Query.t -> float option

val rand_pcs :
  ?value_attrs:string list ->
  ?width_frac:float * float ->
  Pc_util.Rng.t ->
  Pc_data.Relation.t ->
  attrs:string list ->
  n:int ->
  unit ->
  Pc_core.Pc.t list
