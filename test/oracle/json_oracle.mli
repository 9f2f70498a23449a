(** The parser [Pc_obs.Json.parse] replaced, kept as its oracle: the
    same value on every valid input, the same error text (message and
    offset) on every invalid one. *)

val parse : string -> (Pc_obs.Json.value, string) result

(** The printer [Pc_obs.Json.to_string] replaced, kept as its oracle:
    the same bytes for every value. *)
val to_string : Pc_obs.Json.value -> string
