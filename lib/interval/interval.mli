(** Real intervals with open, closed, and infinite endpoints.

    These are the building blocks of predicates (range atoms), value
    constraints, and cell boxes. An [Interval.t] is always non-empty; empty
    results of algebraic operations are signalled with [option]. *)

type endpoint =
  | Neg_inf
  | Pos_inf
  | Closed of float  (** endpoint included *)
  | Open of float  (** endpoint excluded *)

type t = private { lo : endpoint; hi : endpoint }

val make : endpoint -> endpoint -> t option
(** [make lo hi] is the interval if non-empty, [None] otherwise.
    [Neg_inf] is only meaningful as a lower endpoint and [Pos_inf] as an
    upper one; passing them on the wrong side yields [None]. Non-finite
    floats inside [Closed]/[Open] raise [Invalid_argument]. *)

val make_exn : endpoint -> endpoint -> t
(** Like {!make} but raises [Invalid_argument] on an empty interval. *)

val full : t
(** The whole real line. *)

val point : float -> t
(** Degenerate closed interval [x, x]. *)

val closed : float -> float -> t
(** [closed lo hi] is [lo, hi]; raises [Invalid_argument] if [lo > hi]. *)

val at_least : float -> t
(** [[x, ∞)]. *)

val at_most : float -> t
(** [(-∞, x]]. *)

val greater_than : float -> t
(** [(x, ∞)]. *)

val less_than : float -> t
(** [(-∞, x)]. *)

val contains : t -> float -> bool

val intersect : t -> t -> t option
(** [None] when the intersection is empty. *)

val overlaps : t -> t -> bool
val subset : t -> t -> bool

(** [complement t] is the set difference [ℝ \ t] as 0, 1, or 2 disjoint
    intervals. *)
val complement : t -> t list

val hull : t -> t -> t
(** Smallest interval containing both. *)

val compare_lo : t -> t -> int
(** Compare lower endpoints as restrictions: negative when [a] starts
    before (or less strictly than) [b] — [Open x] is stronger than
    [Closed x]. *)

val compare_hi : t -> t -> int
(** Compare upper endpoints as restrictions: negative when [a] ends
    before (or more strictly than) [b]. *)

val abuts : t -> t -> bool
(** [abuts a b]: [a]'s upper and [b]'s lower endpoint split ℝ at a shared
    finite point with no gap and no overlap — [a = (…, x)] against
    [b = [x, …)], or [a = (…, x]] against [b = (x, …)]. The invariant
    behind FDD edge coalescing: two adjacent edges of a partition always
    abut. *)

val refine : t list -> t list
(** [refine ivs] is the common refinement of ℝ by the inputs: an
    ascending list of disjoint intervals covering ℝ, each wholly inside
    or wholly outside every input. Splits at shared endpoints honour
    open/closed-ness, so [refine [\[0,10\]; \[10,20\]]] contains the
    singleton [\[10,10\]]. [refine \[\]] is [[full]]. *)

val lo_float : t -> float
(** Lower endpoint as a float, [neg_infinity] for [Neg_inf]. *)

val hi_float : t -> float

val is_singleton : t -> bool
val width : t -> float
(** [hi - lo]; [infinity] when unbounded. *)

val midpoint : t -> float
(** A representative interior-or-endpoint element. For unbounded intervals
    picks a finite representative near the finite endpoint (or 0). *)

val sample : Pc_util.Rng.t -> t -> float
(** Random element of the interval (uniform over a finite truncation for
    unbounded intervals). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val key : t -> string
(** A collision-free rendering for cache keys and dataset digests:
    [\[c<x>,o<y>\]] with each value printed exactly ([%h]), [-inf] and
    [+inf] for infinite ends. Equal keys imply equal intervals, bit for
    bit. *)

val add_key : Buffer.t -> t -> unit
(** Append {!key}'s bytes, with no [Printf]. *)
