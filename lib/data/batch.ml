(* A batch is the validated relation it was read as: construction
   checks every tuple once ({!Relation.create}'s rules), and every
   reader after that shares the same immutable rows. *)

type t = Relation.t

let of_relation rel = rel
let of_rows = Relation.create
let of_csv_string ?schema text = Csv.read_string ?schema text
let schema = Relation.schema
let rows = Relation.cardinality

let row t i =
  if i < 0 || i >= rows t then invalid_arg "Batch.row: index out of bounds";
  Relation.get t i

let iter = Relation.iter
let column = Relation.column_values
let to_relation t = t
