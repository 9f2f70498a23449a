(** Aggregate queries of the shape the paper supports (§2):
    [SELECT agg(attr) FROM R WHERE conjunctive-predicate], plus GROUP BY as
    a union of such queries. *)

type agg = Count | Sum of string | Avg of string | Min of string | Max of string

type t = { agg : agg; where_ : Pc_predicate.Pred.t }

val make : ?where_:Pc_predicate.Pred.t -> agg -> t
val count : ?where_:Pc_predicate.Pred.t -> unit -> t
val sum : ?where_:Pc_predicate.Pred.t -> string -> t
val avg : ?where_:Pc_predicate.Pred.t -> string -> t
val min_ : ?where_:Pc_predicate.Pred.t -> string -> t
val max_ : ?where_:Pc_predicate.Pred.t -> string -> t

val agg_attr : t -> string option
(** The aggregated attribute; [None] for COUNT. *)

val check_schema : Pc_data.Schema.t -> t -> (unit, string) result
(** [Error] naming the first attribute the query reads that [schema]
    lacks or holds with the wrong kind: the aggregated attribute and
    range atoms need a numeric attribute, categorical atoms a
    categorical one. {!eval} raises on such a query. *)

val eval : Pc_data.Relation.t -> t -> float option
(** Ground-truth evaluation. COUNT and SUM of an empty selection are [0.];
    AVG/MIN/MAX of an empty selection are [None]. *)

val fold : Pc_data.Relation.t -> t -> int * float
(** [fold rel q] is the number of rows of [rel] that satisfy [q]'s WHERE
    clause and the fold of the aggregated attribute over them in row
    order: the sum for SUM and AVG (from [0.]), the minimum for MIN
    (from [infinity]), the maximum for MAX (from [neg_infinity]), and
    [0.] for COUNT. Bit-identical to {!Pc_util.Stat}'s [sum], [minimum]
    and [maximum] over [Relation.column (selection rel q) a], with no
    selection or column built. The column is read only when some row is
    selected: an aggregated attribute that is absent or categorical
    raises as that [Relation.column] would, and only then. *)

val eval_group_by :
  Pc_data.Relation.t -> t -> string -> (Pc_data.Value.t * float option) list
(** One result per group, in first-occurrence order. *)

val selection : Pc_data.Relation.t -> t -> Pc_data.Relation.t
(** Rows satisfying the WHERE clause. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
