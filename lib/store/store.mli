(** A partitioned table that answers aggregate queries with hard result
    ranges even when some partitions failed to load — the paper's
    motivating scenario (§1) as a data structure.

    Every partition's zone map (count, per-column min/max, categorical
    memberships) is retained when the partition is added; losing the
    partition keeps the zone map. Queries evaluate exactly over the
    loaded rows, and the lost partitions contribute a predicate-constraint
    each, bounded by the §4 machinery. No user-written constraints are
    needed: the statistics the store already keeps are the constraints —
    though user constraints can be conjoined to tighten further. *)

type t

val create : Pc_data.Schema.t -> t
(** An empty store. *)

val add_partition : t -> id:string -> Pc_data.Relation.t -> t
(** Raises [Invalid_argument] on duplicate ids, schema mismatches, or an
    empty partition. *)

val mark_missing : t -> id:string -> t
(** Simulate / record a load failure. Raises [Not_found] on unknown id. *)

val restore : t -> id:string -> Pc_data.Relation.t -> t
(** The partition arrived after all; its rows must satisfy the retained
    zone map (checked — raises [Invalid_argument] otherwise). *)

val schema : t -> Pc_data.Schema.t
val partitions : t -> Partition.t list
val loaded_rows : t -> Pc_data.Relation.t
(** Union of the loaded partitions. *)

val missing_count : t -> int
(** Exact number of rows in missing partitions (zone maps store counts). *)

val missing_pcs : ?extra:Pc_core.Pc.t list -> t -> Pc_core.Pc_set.t
(** One constraint per missing partition, plus any user-supplied [extra]
    constraints about the lost rows. A missing partition's constraint is
    its zone map ({!Partition.to_pc}) widened by every other missing
    partition whose zone-map box meets its own: the frequency cap adds
    their counts and each value range is the hull of theirs, since their
    lost rows may lie inside its box. Extras are conjoined with each
    missing partition's zone-map box so they *restrict* without granting
    existence outside the lost regions; their frequency caps consequently
    apply per partition and their frequency lower bounds are dropped
    (both conservative). *)

val query :
  ?opts:Pc_core.Bounds.opts ->
  ?extra:Pc_core.Pc.t list ->
  t ->
  Pc_query.Query.t ->
  Pc_core.Bounds.answer
(** Exact over loaded partitions, hard range over missing ones. With no
    missing partitions the answer is the exact point range. *)

val summaries_to_dsl : t -> string
(** All zone maps as a PC-DSL constraint file (one constraint per
    partition, loaded or not) — the durable metadata a deployment would
    persist next to the data. *)

val pp : Format.formatter -> t -> unit
