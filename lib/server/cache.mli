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
    (key, value and front keys) with FIFO eviction (large replies can
    no longer pin unbounded memory behind the entry cap). Emptied
    entries (see the refill below) count against both caps. Hits and
    misses feed the global [cache.hits] / [cache.misses] counters;
    capacity-driven evictions feed [cache.evictions] and delta-scoped
    ones [cache.invalidations]. [cache.invalidate_row_tests] counts the
    entries an {!invalidate} sweep had to test row by row (see the flat
    sweep below), and [cache.refills] the misses that reached an
    emptied entry through its front key.

    {2 Delta-scoped invalidation}

    Each entry carries {!meta}: the PC indices its query's FDD leaves
    can reach and its selection predicate. An ingestion batch evicts an
    entry iff it could have changed that entry's reply:

    - {e missing side}: the batch consumed budget of a PC in the
      entry's reachable set (consumption tightens every cell that PC
      covers, reachable cells included);
    - {e certain side}: some batch row satisfies the entry's selection
      predicate (the certain aggregate shifts) — skipped for
      [missing_only] entries, whose replies ignore the certain side.

    Batches touching neither side leave the entry byte-valid: the
    residual constraint system restricted to the entry's reachable cells
    and its certain selection are both unchanged.

    An invalidation drops a reply, not what its text derived. An entry
    stored with [~parsed] is {e emptied}: its reply goes, and its key,
    front keys, parsed query, key part, reachable PCs and compiled
    selection stay. An entry stored without it has nothing a later
    request could reuse and is removed. An emptied entry never answers:
    {!find} misses on it, {!find_front} returns a {!Refill}, and a sweep
    passes over it (it counts as no eviction). The next {!store} under
    its key fills it in place.

    {3 The flat sweep}

    The certain-side test is exact: it evaluates the entry's selection
    on every batch row, and an atom that raises (attribute absent from
    the batch schema, or of the wrong kind) counts as a match. Most
    entries are skipped before it. Each entry keeps a flat layout, built
    by {!store}: its reachable PCs as an int array, and its selection
    compiled for the cache's schema (the last batch schema swept; a
    stream has one) to "cannot be evaluated" or to the column and the
    unboxed bounds of each numeric atom. A sweep with rows of another
    schema recompiles every entry first. Once per batch the sweep
    computes each numeric column's [\[min, max\]] hull over the rows,
    NaN excluded; then one pass over the entries tests each PC against
    the touched mask and each numeric atom against its column's hull,
    allocating nothing per entry. An entry skips the row test iff every
    atom can be evaluated and some numeric atom's interval misses its
    column's hull. The answer is the same: every row fails that atom,
    no atom can raise, so no row satisfies the conjunction. A full-line
    atom never rules a row out (it admits NaN), so it never skips one.
    A batch with a row that does not fit its schema (too short, or a
    value of the wrong kind) disables the hull test, since an atom could
    raise on that row. [test/test_ingest.ml] checks the victims against
    the row sweep ([test/oracle/cache_sweep.ml]), and
    [test/test_server.ml] against the per-entry hull test this pass
    replaced ([test/oracle/cache_hull.ml]).

    There is no PC → entries index and no grouping of entries by
    selection. On the benchmark's ingest workload the roughly 145
    cached selections are all distinct, so grouping would save nothing.

    {2 The front index}

    A request's {!front_key} (its raw query text and flags) leads to
    the entry its canonical {!key} found or stored, so a text the cache
    has answered before hits without a parse: {!find_front} is checked
    first, and {!find} and {!store} link the front key on the way. Equal
    front keys parse to equal keys within one cache, so a front hit
    returns the bytes the canonical hit would. Front keys stay with an
    emptied entry, go with an entry that is removed (by the caps, or by
    an invalidation when it was stored without [~parsed]) and count in
    the byte cap. A request moves [cache.hits] or [cache.misses] exactly
    once: a {!Hit} counts a hit, a {!Refill} a miss (so the caller does
    not ask {!find}), and {!Absent} nothing.

    A {!Refill} carries what the request would otherwise derive again:
    the parsed query, its {!query_part}, the canonical key and the meta.
    The server skips the parse, the key and the reachable-PC walk, runs
    every other check a miss runs (the certain schema, admission, the
    snapshot pin) and stores with the same meta, which refills the
    entry without rebuilding its flat layout; the store is fenced by
    version like any other.

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

type refill = {
  query : Pc_query.Query.t;
  part : string;  (** {!query_part} of [query] *)
  key : string;  (** the canonical key *)
  meta : meta;  (** the meta the entry was stored with *)
}

(** What a {!front_key} leads to. *)
type front =
  | Hit of string  (** the cached reply *)
  | Refill of refill  (** an emptied entry stored with [~parsed] *)
  | Absent  (** nothing: parse the request and ask {!find} *)

val create : ?capacity:int -> ?capacity_bytes:int -> unit -> t
(** Defaults: 1024 entries, 64 MiB of key+value bytes. *)

val find : t -> ?front:string -> string -> string option
(** Counts a hit or a miss. On a hit, [front] (a {!front_key}) is
    linked to the entry found. *)

val find_front : t -> string -> front
(** What the {!front_key} leads to. Counts a hit for a {!Hit}, a miss
    and a refill for a {!Refill}, and nothing for {!Absent} (the caller
    then parses the request and asks {!find}, which counts). An emptied
    entry stored without [~parsed] reads {!Absent}. *)

val store :
  t ->
  meta:meta ->
  version:int ->
  ?front:string ->
  ?parsed:Pc_query.Query.t * string ->
  string ->
  string ->
  unit
(** Insert unless a reply is present, and fill an emptied entry in
    place; evicts oldest entries while either cap is exceeded.
    [version] is the stream version the reply's snapshot was pinned
    at: the store is silently dropped when an {!invalidate} for a later
    version has already swept (the reply is stale by construction).
    [front] is linked to the entry stored, or to the one already
    present. [parsed] is the query the key was built from and its
    {!query_part}: an entry stored with it is emptied, not removed, by
    {!invalidate}. A fill keeps the entry's layout when [meta] is
    physically the meta it holds (the one a {!Refill} returned) and
    rebuilds it otherwise. *)

val invalidate :
  t ->
  version:int ->
  touched:int list ->
  rows:(Pc_data.Schema.t * Pc_data.Relation.tuple array) option ->
  int
(** Evict every reply an ingestion delta could have affected (empty its
    entry when it was stored with [~parsed], remove it otherwise): [touched]
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
(** Entries, emptied ones included: what the entry cap counts. *)

val bytes : t -> int
(** Key, reply and front-key bytes of every entry: what the byte cap
    counts. *)

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
(** The cache key: [key_of_part ~digest (query_part query)].
    [timeout_ms] participates because it clips the request budget,
    which can change the reply's degradation path — two requests
    differing only in timeout must not share an entry. *)

val query_part : Pc_query.Query.t -> string
(** The aggregate-and-predicate part of a key, in canonical form. *)

val key_of_part :
  digest:string ->
  string ->
  missing_only:bool ->
  timeout_ms:float option ->
  string
(** A key from its {!query_part}: a request that needs two keys of one
    query (the reply's and its incremental engine's) builds the part
    once. *)

val front_key :
  text:string -> missing_only:bool -> timeout_ms:float option -> string
(** The front key of a request: its raw query text and the flags that
    take part in {!key}. Within one cache (one dataset), equal front
    keys parse to equal keys. *)
