(** Streaming ingestion with snapshot isolation.

    A stream owns the evolving certain partition of one dataset and the
    per-PC consumption it implies. Writers ([append]/[retract]) are
    serialized by an internal mutex; readers never lock — every query
    pins an immutable {!snapshot} obtained from a single [Atomic.get],
    and a batch publishes a fresh snapshot with a single [Atomic.set].
    A snapshot is internally consistent by construction: its certain
    relation, consumption vector, and residual PC set were derived
    together before the swap, so a reader can never observe a batch's
    rows on the certain side without its budget consumption on the
    missing side (or vice versa).

    Appending a batch routes every row through the dataset's
    precompiled FDD (which agrees with per-PC predicate evaluation,
    qcheck-pinned in [test_fdd]): the row's active set names the PCs
    whose missing-row budget it consumes. The {e residual} PC set
    replaces each frequency range [kl, ku] with
    [(kl − c)⁺ ∧ ku', ku' = (ku − c)⁺] for consumption [c] — the
    constraint system the full bound path solves after ingestion. It is
    built with {!Pc_core.Pc_set.map_freqs}, so every snapshot's residual
    shares the base set's flat table and disjointness flag, computed
    once for the stream's life. A
    {!Pc_core.Incremental} engine takes the raw [consumed] vector
    instead and reaches the same system by pure bound changes on the
    program it built once.

    Retraction is by batch id and restores the budget: consumption is
    subtracted and the certain relation rebuilt from the base load plus
    the surviving batches (arrival order), whose relations the stream
    kept at append. *)

type info = {
  batch_id : int;
  version : int;  (** the version the operation published *)
  rows : int;
  touched : int list;  (** PC indices whose consumption changed *)
  delta : int array;  (** per-PC consumption delta of the batch *)
}

type snapshot = {
  version : int;
  certain : Pc_data.Relation.t option;
      (** base CSV plus appended batches; [None] before any certain row
          exists *)
  consumed : int array;  (** total per-PC consumption, length = set size *)
  residual : Pc_core.Pc_set.t;  (** base set minus consumption *)
}

type t

val create :
  ?certain:Pc_data.Relation.t ->
  fdd:Pc_predicate.Fdd.compiled ->
  Pc_core.Pc_set.t ->
  t
(** A stream at version 0 over the base PC set. The base [certain]
    relation (the load-time CSV) is {e not} routed: the paper's
    protocol treats it as the ground truth the constraints were
    estimated against, while appended batches arrive {e after} the
    constraint set was fixed and therefore consume missing-row budget.
    [fdd] must be compiled from exactly the base set's predicates. *)

val base_set : t -> Pc_core.Pc_set.t

val schema : t -> Pc_data.Schema.t option
(** Schema of the certain side, once known (from the base CSV or the
    first appended batch). *)

val snapshot : t -> snapshot
(** Lock-free; the returned value is immutable and never changes under
    the caller. *)

val append :
  ?before_publish:(info -> unit) ->
  t ->
  Pc_data.Batch.t ->
  (info * snapshot, string) result
(** Route, consume, and publish. [Error] (and no published change) when
    the batch schema disagrees with the established certain schema or a
    routed attribute is missing/mistyped.

    [before_publish] runs with the batch's [info] inside the writer
    critical section, after routing but {e before} the new snapshot
    becomes visible — the seam where the server invalidates its bound
    cache, so no reader at the new version can hit a reply the batch
    obsoleted. It must not raise (a raise aborts the publish). *)

val retract :
  ?before_publish:(info -> unit) ->
  t ->
  batch_id:int ->
  (info * snapshot, string) result
(** Reverse one appended batch; [Error] on an unknown id. The returned
    [info] carries the (negative) consumption delta and the rows of the
    retracted batch in [rows]. [before_publish] as in {!append}. *)

val batches : t -> (int * int) list
(** Live (batch id, row count) pairs, oldest first. *)

val find_batch : t -> batch_id:int -> Pc_data.Batch.t option
(** The rows of a live batch (e.g. for cache invalidation around a
    retraction). *)
