(** The CSV reader [Pc_data.Csv.read_string] replaced, kept as its
    oracle: the same relation on every input it reads, the same
    exception (constructor and message) on every one it rejects. *)

val read_string : ?schema:Pc_data.Schema.t -> string -> Pc_data.Relation.t
