(** Minimal CSV reader/writer for relations.

    Supports a header row, comma separation, and double-quote quoting with
    [""] escapes. Column kinds are inferred (a column is numeric when every
    non-empty field parses as a float) unless a schema is supplied. *)

val read_string : ?schema:Schema.t -> string -> Relation.t
(** Parses CSV text. Raises [Failure] with a line number on malformed
    input, and [Invalid_argument] when a supplied schema does not match. *)

val read_file : ?schema:Schema.t -> string -> Relation.t

val write_string : Relation.t -> string
(** Numbers print through {!Pc_util.Float_text.to_string}: reading the
    text back with {!read_string} gives the same doubles, bit for bit. *)

val write_file : string -> Relation.t -> unit
