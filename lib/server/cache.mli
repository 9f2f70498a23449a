(** Canonicalizing bound cache: serialized [bound] replies keyed on the
    canonical form of (dataset digest, aggregate, query predicate,
    request flags).

    The cached value is the reply's exact serialized text, so a hit is
    byte-identical to the reply the compute path would have produced —
    no re-serialization, no float-formatting drift. Only exact,
    fully-admitted replies are stored (degraded answers depend on the
    budget race that produced them). The server allocates a fresh cache
    per dataset load, so [load] naturally invalidates; streaming
    ingestion instead uses {!invalidate} for {e delta-scoped} eviction.

    Thread-safe; bounded by {e both} entry count and total byte size
    with FIFO eviction (large replies can no longer pin unbounded
    memory behind the entry cap). Hits and misses feed the global
    [cache.hits] / [cache.misses] counters; capacity-driven evictions
    feed [cache.evictions] and delta-scoped ones [cache.invalidations].
    [cache.invalidate_row_tests] counts the entries an {!invalidate}
    sweep had to test row by row (see the prefilter below).

    {2 Delta-scoped invalidation}

    Each entry may carry {!meta}: the PC indices its query's FDD leaves
    can reach and its selection predicate. The server stores every
    entry with it. An ingestion batch evicts an entry iff it could have
    changed that entry's reply:

    - {e missing side}: the batch consumed budget of a PC in the
      entry's reachable set (consumption tightens every cell that PC
      covers, reachable cells included);
    - {e certain side}: some batch row satisfies the entry's selection
      predicate (the certain aggregate shifts) — skipped for
      [missing_only] entries, whose replies ignore the certain side.

    An entry stored without metadata (only tests and oracles store
    such entries) is conservatively evicted by every batch. Batches
    touching neither side leave the entry byte-valid: the residual
    constraint system restricted to the entry's reachable cells and its
    certain selection are both unchanged.

    {3 The hull prefilter}

    The certain-side test is exact: it evaluates the entry's selection
    on every batch row, and an atom that raises (attribute absent from
    the batch schema, or of the wrong kind) counts as a match. Most
    entries are skipped before it. Once per batch the sweep computes
    each numeric column's [\[min, max\]] hull over the rows, NaN
    excluded. Once per entry and batch schema (memoised in the entry)
    it compiles the selection to the column and interval of each
    numeric atom, or to "cannot be evaluated". An entry skips the row
    test iff every atom can be evaluated and some numeric atom's
    interval misses its column's hull. The answer is the same: every
    row fails that atom, no atom can raise, so no row satisfies the
    conjunction. A full-line atom never rules a row out (it admits
    NaN), so it never skips one. A batch with a row that does not fit
    its schema (too short, or a value of the wrong kind) disables the
    prefilter, since an atom could raise on that row. The test
    [test/test_ingest.ml] checks the victims against the row sweep,
    kept in [test/oracle/cache_sweep.ml].

    There is no PC → entries index and no grouping of entries by
    selection. The missing-side test is a lookup per reachable PC, but
    the certain side still has to visit every entry, and after the
    prefilter that visit is a few float comparisons. On the benchmark's
    ingest workload the roughly 145 cached selections are all distinct,
    so grouping would save nothing.

    {2 Version fencing}

    Invalidation alone cannot make the cache safe against a reply that
    was {e computed} against a pre-batch snapshot but {e stored} after
    the batch's sweep: the stale bytes would land post-sweep and be
    served at the new version. The cache therefore tracks a monotonic
    stream version, advanced by {!invalidate} under the internal lock;
    {!store} carries the version the reply's snapshot was pinned at and
    is dropped (counted in [cache.stale_stores]) when the cache version
    has advanced past it — the check and the insert are atomic with
    respect to every sweep. *)

type t

type meta = {
  pcs : int list;
      (** sorted PC indices reachable from the query's FDD leaves
          ({!Pc_predicate.Fdd.active_pcs}) *)
  where_ : Pc_predicate.Pred.t;
  missing_only : bool;
}

val create : ?capacity:int -> ?capacity_bytes:int -> unit -> t
(** Defaults: 1024 entries, 64 MiB of key+value bytes. *)

val find : t -> string -> string option
(** Counts a hit or a miss. *)

val store : t -> ?meta:meta -> ?version:int -> string -> string -> unit
(** Insert unless present; evicts oldest entries while either cap is
    exceeded. [version] is the stream version the reply's snapshot was
    pinned at: the store is silently dropped when an {!invalidate} for
    a later version has already swept (the reply is stale by
    construction). Omitting [version] stores unconditionally. *)

val invalidate :
  t ->
  version:int ->
  touched:int list ->
  rows:(Pc_data.Schema.t * Pc_data.Relation.tuple array) option ->
  int
(** Evict every entry an ingestion delta could have affected: [touched]
    are the PC indices whose consumption changed, [rows] the batch's
    certain rows (for selection-predicate tests; [None] means no
    certain-side change, as when the rows are unavailable the caller
    should pass the batch rows). [version] is the stream version the
    batch publishes — it fences subsequent {!store}s of replies pinned
    before it. Returns the number of evictions.

    Adds the entries that reached the exact row test to
    [cache.invalidate_row_tests]. Under tracing it also attaches that
    number as a [row_tests] attribute to the caller's innermost open
    span (the server's [ingest.append] / [ingest.retract] span). *)

val size : t -> int
val bytes : t -> int

val queue_length : t -> int
(** Length of the internal FIFO bookkeeping queue. Exposed for tests:
    compaction keeps it O(live entries) under store→invalidate churn
    rather than growing for the life of the process. *)

val digest_set : Pc_core.Pc_set.t -> csv:string option -> string
(** Hex digest of the dataset's semantic content: canonical PC
    predicates, value constraints, frequency ranges, and the raw
    certain-partition CSV text. *)

val key :
  digest:string ->
  query:Pc_query.Query.t ->
  missing_only:bool ->
  timeout_ms:float option ->
  string
(** The cache key. [timeout_ms] participates because it clips the
    request budget, which can change the reply's degradation path —
    two requests differing only in timeout must not share an entry. *)
