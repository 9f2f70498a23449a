(** GROUP-BY contingency analysis. The paper treats a GROUP-BY query as a
    union of per-group queries (§2); this module materializes that union.

    The group keys are discovered from the certain partition and from the
    categorical equality/membership atoms of the constraint predicates —
    a missing row can only form a *new* group if some constraint admits a
    key outside both, which is reported via [residual]. *)

type result = {
  groups : (Pc_data.Value.t * Bounds.answer) list;
      (** one result range per known group key *)
  residual : Bounds.answer option;
      (** range for rows whose key is provably outside the known groups
          (an open categorical domain admits unseen keys);
          [None] when no constraint admits such rows *)
}

val bound :
  ?opts:Bounds.opts ->
  Pc_set.t ->
  certain:Pc_data.Relation.t ->
  by:string ->
  Pc_query.Query.t ->
  result
(** [bound set ~certain ~by query] computes the result range of [query]
    for every group of [by]. [by] must be a categorical attribute of the
    certain partition's schema. Each group is an independent solve over
    its own query region. *)

val known_keys : Pc_set.t -> certain:Pc_data.Relation.t -> by:string -> string list
(** The group keys considered: certain-partition values plus constraint
    predicate constants, sorted. *)
