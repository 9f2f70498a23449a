(** A PC set's predicate boxes and value constraints as one flat table.

    One column per attribute that some predicate constrains numerically
    or some value constraint (ν) names, sorted. For each PC (row) and
    column the table stores two intervals: the hull of the predicate's
    box on that attribute and the ν range ([Interval.full] where the PC
    leaves it free). Intervals are unboxed: a [lo]/[hi] float pair plus
    open flags, with [Neg_inf]/[Pos_inf] as open infinities.

    Every per-query box test of {!Bounds} runs on it without allocating:
    query overlap, pairwise disjointness and the meet that builds a
    cell's region. Categorical atoms stay in a residual categorical-only
    {!Pc_predicate.Box.t} per PC and per query, conjoined after the flat
    test and skipped when at most one side has any.

    Exactness: every meet keeps {!Pc_interval.Interval.intersect}'s tie
    rules (the accumulator wins ties; an incoming endpoint that wins on
    openness brings its float, so [-0.] and [0.] come out as the
    interval code would give them), and conjoining a box's atoms one by
    one equals meeting their hull. So a region read off the table is
    bit-identical to the one {!Pc_predicate.Box.add_pred} folds build. *)

type t

val make : Pc.t array -> Pc_predicate.Box.t option array -> t
(** [make pcs boxes] with [boxes.(i)] the box of [pcs.(i)]'s predicate
    ([None] when unsatisfiable: that row never meets anything). Raises
    [Box]'s [Invalid_argument] when the satisfiable predicates use one
    attribute as both kinds. *)

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
(** One interval per column, overwritten by each region build: allocate
    two per query and reuse them. *)

val acc : t -> acc

val get : acc -> int -> Pc_interval.Interval.t
(** Column [k]'s interval after a build that returned [true]. *)

val lo : acc -> int -> float
(** Its lower end as a float, [neg_infinity] when unbounded. *)

val hi : acc -> int -> float

val cell : t -> rows:int array -> tighten:bool -> query -> acc -> acc -> int list -> bool
(** [cell t ~rows ~tighten q values clip active]: the region of the cell
    whose active PCs are the indices [active] (mapped to table rows by
    [rows]) within [q]. [values] receives, per column, the meet of the
    active ν ranges, under [tighten] then met with the cell's box (the
    query, then each active predicate, in order, built in [clip]).
    [false] when no row can live there: some range or the box is empty. *)

val single : t -> tighten:bool -> query -> acc -> acc -> int -> bool
(** [single t ~tighten q values clip r]: row [r] as a cell of its own,
    the greedy path's shape: its ν ranges met with, under [tighten], its
    predicate's box conjoined with the query (predicate first). The row
    must be satisfiable and overlap [q]. *)
