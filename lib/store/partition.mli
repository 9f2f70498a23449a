(** A table partition with retained zone-map statistics.

    Analytical stores already keep per-partition metadata — row counts and
    per-column min/max ("zone maps", Parquet row-group stats). Those
    statistics are exactly a predicate-constraint: when a partition's rows
    are lost, its surviving zone map bounds what the lost rows could have
    been. This module is that observation made concrete. *)

type summary = {
  count : int;
  ranges : (string * Pc_interval.Interval.t) list;
      (** min/max per numeric column *)
  categories : (string * string list) list;
      (** distinct values per categorical column *)
}

type status = Loaded | Missing

type t = private {
  id : string;
  status : status;
  summary : summary;
  rows : Pc_data.Relation.t option;  (** [None] when missing *)
}

val summarize : id:string -> Pc_data.Relation.t -> t
(** A loaded partition with its zone map computed from the rows. Raises
    [Invalid_argument] on an empty relation (empty partitions carry no
    information and should simply not exist). *)

val mark_missing : t -> t
(** Drop the rows, keep the statistics — the partition failed to load. *)

val rows_exn : t -> Pc_data.Relation.t
(** Raises [Invalid_argument] on a missing partition. *)

val bounding_pred : t -> Pc_predicate.Pred.t
(** The zone map's region as a predicate (numeric ranges ∧ categorical
    memberships). *)

val to_pc : t -> Pc_core.Pc.t
(** The zone map as a predicate-constraint: the predicate is the
    partition's bounding box (numeric ranges ∧ categorical memberships),
    the value constraints its numeric ranges, the frequency exactly its
    row count. It describes this partition's rows alone: a PC counts every
    row inside its predicate, so once several partitions are lost and
    their boxes overlap, rows of one can fall inside another's box and
    the lost rows need not satisfy it. {!Store.missing_pcs} widens it
    against the other missing partitions; soundness belongs to that set,
    not to one zone map. *)

val summary_holds : t -> bool
(** For loaded partitions: the zone map is consistent with the rows
    (used to validate persistence round-trips). *)

val pp : Format.formatter -> t -> unit
