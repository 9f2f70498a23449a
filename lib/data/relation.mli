(** In-memory relations: a schema plus an array of tuples.

    A tuple is a [Value.t array] whose layout matches the schema. Relations
    are immutable from the outside; operations return fresh relations and
    never alias the caller's arrays. The tuples that {!iter}, {!fold},
    {!row} and the predicates of {!filter}/{!partition} see, and the
    arrays {!numbers} returns, are the relation's own: callers read
    them and never write them.

    A relation caches each numeric column as an unboxed [float array],
    filled by the first {!numbers} or {!min_max} that reads it. The
    fill is once per column and idempotent: threads that share a
    relation (the server's connection threads share the certain one)
    may both miss and fill, and both write the same values, so either
    array may stay. No operation ever changes a filled column. *)

type tuple = Value.t array

type t

val create : Schema.t -> tuple list -> t
(** Validates every tuple against the schema (arity and kinds). *)

val of_array : Schema.t -> tuple array -> t

val adopt : Schema.t -> tuple array -> t
(** The relation of [rows] themselves: no check and no copy. The caller
    built every tuple to fit the schema and gives up the array and its
    tuples: it never reads or writes them again. *)

val schema : t -> Schema.t
val cardinality : t -> int
val is_empty : t -> bool
val tuples : t -> tuple array
(** A defensive copy. *)

val get : t -> int -> tuple
(** A copy of tuple [i]. *)

val row : t -> int -> tuple
(** Tuple [i] itself, not copied: read it, never write it. *)

val value : t -> int -> string -> Value.t
(** [value r i a] is attribute [a] of tuple [i]. *)

val number : t -> int -> string -> float
(** Numeric attribute access; raises on categorical. *)

val iter : (tuple -> unit) -> t -> unit
val fold : ('a -> tuple -> 'a) -> 'a -> t -> 'a
val filter : (tuple -> bool) -> t -> t
val partition : (tuple -> bool) -> t -> t * t
(** Both call the predicate once per tuple, in tuple order. *)

val union : t -> t -> t
(** Bag union; schemas must be equal. *)

val column : t -> string -> float array
(** Numeric column as floats, a fresh array the caller may modify.
    Raises [Not_found] on an absent attribute and [Invalid_argument] on
    a categorical one (unless the relation is empty). *)

val numbers : t -> string -> float array
(** The cached numeric column, filled on the first call and shared by
    every later one: read it, never write it. Raises as {!column}. *)

val column_values : t -> string -> Value.t array

val distinct_strings : t -> string -> string list
(** Sorted distinct values of a categorical column. *)

val min_max : t -> string -> (float * float) option
(** Range of a numeric column ([Float.min]/[Float.max] folds over the
    cached column); [None] when empty. *)

val sort_by : (tuple -> tuple -> int) -> t -> t

val group_by : t -> string -> (Value.t * t) list
(** Groups by one attribute; order of groups follows first occurrence. *)

val take : int -> t -> t
val drop : int -> t -> t
val pp : Format.formatter -> t -> unit
(** Prints the schema and up to 10 tuples. *)
