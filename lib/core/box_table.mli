(** A PC set's predicate boxes and value constraints as one flat table.

    One column per attribute that some predicate constrains numerically
    or some value constraint (ν) names, sorted. For each PC (row) and
    column the table stores two intervals: the hull of the predicate's
    box on that attribute and the ν range ([Interval.full] where the PC
    leaves it free). Intervals are unboxed: a [lo]/[hi] float pair plus
    open flags, with [Neg_inf]/[Pos_inf] as open infinities.

    Every per-query box test of {!Bounds} runs on it without allocating:
    query overlap, pairwise disjointness and the meets that build a
    cell's region. Categorical atoms stay in a residual categorical-only
    {!Pc_predicate.Box.t} per PC and per query, conjoined after the flat
    test and skipped when at most one side has any.

    The same table carries each row's negated clause for the DFS,
    compiled atom by atom (column, unboxed interval, the original atom)
    once per set on first use. The incremental DFS of {!Cells} runs on
    {!frames} over it.

    Exactness: every meet keeps {!Pc_interval.Interval.intersect}'s tie
    rules (the accumulator wins ties; an incoming endpoint that wins on
    openness brings its float, so [-0.] and [0.] come out as the
    interval code would give them), and conjoining a box's atoms one by
    one equals meeting their hull. So a region read off the table is
    bit-identical to the one {!Pc_predicate.Box.add_pred} folds build. *)

type t

val make : Pc.t array -> t
(** One row per PC, in order, built from its predicate's
    {!Pc_predicate.Box.of_pred} (an unsatisfiable predicate's row never
    meets anything). Raises [Box]'s [Invalid_argument] when the
    predicates use one attribute as both kinds. Every attribute a
    predicate ranges over has a column, an unsatisfiable predicate's
    included. *)

val cols : t -> string array
val col : t -> string -> int
(** Column index of an attribute; [-1] when it has none. *)

val boxed : t -> int -> bool
(** The row's predicate is satisfiable. *)

val value_lo : t -> int -> int -> float
(** [value_lo t r k]: the lower end of row [r]'s ν range on column [k],
    [neg_infinity] when unbounded. *)

val value_hi : t -> int -> int -> float
(** The upper end, [infinity] when unbounded. *)

val meets : t -> int -> int -> bool
(** Two satisfiable rows' predicates are satisfiable together. *)

(** {2 Queries} *)

type query

val query : t -> Pc_predicate.Pred.t -> query
(** The query predicate over the table's columns. Raises [Box]'s
    [Invalid_argument] when a query atom's kind clashes with how the
    set's predicates use its attribute, or within the query. *)

val overlaps : t -> query -> int -> bool
(** The satisfiable row's predicate meets the query region. *)

val outside : query -> string -> Pc_interval.Interval.t
(** The query's range on an attribute without a column: what the
    query's box says about it, [Interval.full] for an empty query. *)

(** {2 Regions} *)

type acc
(** One interval per column, overwritten by each region build: {!single}
    fills two allocated per query, and a {!regions} value owns its
    own. *)

val acc : t -> acc

val get : acc -> int -> Pc_interval.Interval.t
(** Column [k]'s interval after a build that returned [true]. *)

val lo : acc -> int -> float
(** Its lower end as a float, [neg_infinity] when unbounded. *)

val hi : acc -> int -> float

(** {3 Regions along a decomposition}

    A cell's region is the meet of its active PCs' ν rows and, under
    [tighten], of the query with their hull rows. {!Cells} builds it as
    it decomposes: level [d] of a {!regions} value holds the meets of
    the [d] PCs chosen so far, so a step down meets one PC's rows and a
    cell costs one pass over the columns, not one per active PC. *)

type regions
(** Per-decomposition state, with its own accumulators: not shared
    across threads. *)

val regions : t -> rows:int array -> tighten:bool -> query -> depth:int -> regions
(** Levels [0] to [depth] over the set whose PC [i] is table row
    [rows.(i)]; level [0] chooses nothing (ν full, the clip row the
    query). *)

val down : regions -> int -> int -> unit
(** [down g d r]: level [d + 1] is level [d] met with table row [r]'s ν
    row and, under [tighten], its hull row. *)

val leaf : regions -> int -> int list -> bool
(** [leaf g d active]: the region of the cell whose ascending active set
    [active] was met into level [d], into {!values}. Per column: the
    meet of the active ν ranges, under [tighten] then met with the
    cell's box (the query, then each active predicate, in order).
    [false] when no row can live there: some range or the box is empty,
    an active predicate is unsatisfiable, or the categorical atoms
    clash (a cell admitted unchecked can be any of these). The result is
    bit-identical to meeting the rows cell by cell, [-0.] included. *)

val values : regions -> acc
(** The region of the last {!leaf} that returned [true]. *)

val single : t -> tighten:bool -> query -> acc -> acc -> int -> bool
(** [single t ~tighten q values clip r]: row [r] as a cell of its own,
    the greedy path's shape: its ν ranges met with, under [tighten], its
    predicate's box conjoined with the query (predicate first). The row
    must be satisfiable and overlap [q]. *)

(** {2 Decomposition frames}

    The resumable state of {!Cells}' DFS: one level per decided prefix,
    level [0] the query. A level is the solved form of its prefix:

    - a box row, the deterministic narrowing: the query, every chosen
      predicate, every unit clause propagated so far;
    - the pending clauses: unresolved negated predicates, already
      filtered against the box;
    - a witness row, while live: every point of it satisfies the whole
      prefix, so an extension that keeps it non-empty is certified
      satisfiable with no search.

    Rows are unboxed and categorical atoms sit in residual boxes beside
    them. The extension functions write level [l + 1] from level [l],
    return [false] only on {e definite} unsatisfiability, and add their
    atom operations to the tally, counted from the atom lists' lengths. *)

type frames

val frames : t -> depth:int -> frames
(** Levels [0] to [depth], compiling the table's negated clauses on the
    set's first call. One per decomposition: frames are not shared
    across threads. *)

val start : frames -> Pc_predicate.Sat.tally -> query -> bool
(** Level [0] with a live witness: the query box. [false] when the query
    is unsatisfiable. *)

val assume_row : frames -> Pc_predicate.Sat.tally -> int -> int -> bool
(** [assume_row f tally l r] conjoins row [r]'s predicate: its hull and
    categorical atoms, on the box and a live witness. *)

val assume_neg : frames -> Pc_predicate.Sat.tally -> int -> int -> bool
(** [assume_neg f tally l r] conjoins row [r]'s negated clause. Atoms
    dead against the box are dropped ([false] if none survive), a unit
    clause is propagated into the box, an entailed clause is dropped,
    and the rest joins the pending clauses; the witness follows the
    first surviving atom that keeps it non-empty. *)

val witness_alive : frames -> int -> bool

val drop_witness : frames -> int -> unit
(** Forget level [l]'s witness, so that deciding it runs a search. *)

val search : frames -> Pc_predicate.Sat.tally -> int -> bool
(** Decide level [l] by {!Pc_predicate.Sat.solve} over its pending
    clauses, seeded from its box; on success the returned box becomes the
    level's live witness. *)
