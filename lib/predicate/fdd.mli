(** Interval FDDs: hash-consed decision diagrams over predicate sets.

    Compiling a predicate-constraint set yields an ordered-attribute
    decision diagram: attributes are tested in ascending name order,
    numeric nodes fan out over disjoint intervals partitioning ℝ,
    categorical nodes over sorted explicit cases plus a default edge
    (the string universe is open), and each leaf is the sorted set of
    predicate indices satisfied along the path. Nodes are hash-consed
    through a unit table private to the compile, so a [compiled] value
    is immutable and safe to walk from multiple threads or domains.

    Every root-to-leaf path is a non-empty product box, which makes the
    distinct non-empty leaves reachable under a query exactly the
    satisfiable cells of the paper's decomposition (§4.1) — the basis of
    the [Fdd] strategy in [Pc_core.Cells], with the DFS decomposer kept
    as the reference oracle. *)

type compiled

val compile : Pred.t array -> compiled
(** Compile the predicate set into a shared diagram. Leaf index [i]
    refers to [preds.(i)]. Raises [Invalid_argument] if an attribute is
    used both numerically and categorically across the set. Registers
    under the [fdd.compiles] / [fdd.nodes] metrics counters. *)

val cells : ?query:Pred.t -> compiled -> int list list
(** Distinct non-empty active sets whose cell region intersects
    [query] (default: all), in the emission order of the reference DFS
    decomposer (positive branch first). [query] must be satisfiable per
    attribute or the result is [[]]. *)

val active_pcs : ?query:Pred.t -> compiled -> int list
(** Sorted union of the active sets of {!cells} under [query]: every
    predicate index that appears in some reachable non-empty leaf. This
    over-approximates the set of PCs whose frequency budget a bound for
    [query] can depend on — the basis of the server cache's delta-scoped
    invalidation (a batch consuming only PCs outside this set cannot
    change the query's answer). One walk of the diagram marks the
    indices; no cell list is built. *)

val route : compiled -> Pc_data.Schema.t -> Pc_data.Relation.tuple -> int list
(** Active set of the cell hosting the row: one O(attrs) walk instead
    of evaluating every predicate. Raises if a tested attribute is
    absent from the schema or has the wrong kind. A row matching no
    predicate lands on the open-universe leaf and yields [[]]. *)

val n_preds : compiled -> int
(** Size of the compiled predicate set. *)

val n_nodes : compiled -> int
(** Unique hash-consed nodes allocated by the compile (diagram size). *)
