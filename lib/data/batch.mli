(** Append batches: the unit of streaming ingestion.

    A batch is a relation, validated on construction exactly like
    {!Relation.create} and immutable from the outside. Nothing converts
    it again: {!to_relation} returns the rows it was built with, so a
    stream that keeps a batch's relation and the cache sweep that tests
    its rows share one copy. *)

type t

val of_rows : Schema.t -> Relation.tuple list -> t
(** Validates every tuple against the schema (arity and kinds); raises
    [Invalid_argument] on a mismatch, as {!Relation.create} does. *)

val of_relation : Relation.t -> t

val of_csv_string : ?schema:Schema.t -> string -> t
(** Parses CSV text with a header row ({!Csv.read_string}); with
    [schema] the columns are checked against it, otherwise kinds are
    inferred. Raises [Failure] / [Invalid_argument] like the reader. *)

val schema : t -> Schema.t

val rows : t -> int

val row : t -> int -> Relation.tuple
(** Materializes row [i] as a fresh tuple (schema order). *)

val iter : (Relation.tuple -> unit) -> t -> unit
(** The batch's own tuples, in order: read them, never write them. *)

val column : t -> string -> Value.t array
(** A defensive copy of one column. *)

val to_relation : t -> Relation.t
(** The batch's rows as a relation, without a copy. *)
