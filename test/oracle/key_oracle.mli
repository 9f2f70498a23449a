(** The [Printf] key renderers that [Interval.key],
    [Pred.canonical_key] and [Cache.key] replaced, kept as their
    oracle: the same bytes on every input. *)

val interval_key : Pc_interval.Interval.t -> string
val canonical_key : Pc_predicate.Pred.t -> string

val cache_key :
  digest:string ->
  query:Pc_query.Query.t ->
  missing_only:bool ->
  timeout_ms:float option ->
  string
