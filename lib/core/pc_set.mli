(** Predicate-constraint sets S = {π₁, …, πₙ} (paper §3.2). *)

type t

val make : Pc.t list -> t
val of_array : Pc.t array -> t
val pcs : t -> Pc.t list
val size : t -> int
val get : t -> int -> Pc.t

val filter : (int -> bool) -> t -> t
(** [filter f t]: the PCs at the indices [f] keeps, in order. The subset
    carries its rows of [t]'s cached boxes and ν table (built first if
    they were not yet), so {!box} and {!value_row} follow its own
    indices without recomputation. *)

(** {2 Cached per-PC data}

    Built together for the whole set on the first call of any of these
    (not by {!make}) and cached; {!filter} carries them over. *)

val box : t -> int -> Pc_predicate.Box.t option
(** [Box.of_pred] of PC [i]'s predicate: [None] when the predicate is
    unsatisfiable on its own. *)

val value_attrs : t -> string array
(** Sorted distinct value-constraint attributes: the columns of
    {!value_row}. After {!filter}, the parent's columns (an attribute no
    remaining PC constrains is an [Interval.full] column). *)

val value_row : t -> int -> Pc_interval.Interval.t array
(** PC [i]'s ν over {!value_attrs}, [Interval.full] where it leaves an
    attribute unconstrained. The array is shared: do not mutate it. *)

val holds : Pc_data.Relation.t -> t -> bool
(** Every constraint holds on the relation. *)

val violations : Pc_data.Relation.t -> t -> string list

val closed_over : Pc_data.Relation.t -> t -> bool
(** Closure (Definition 3.2) checked empirically: every tuple satisfies at
    least one predicate. The framework's result ranges are guaranteed only
    under closure. *)

val is_disjoint : t -> bool
(** True when predicates are pairwise unsatisfiable together — the fast
    greedy path applies (paper §4.2, "Faster Algorithm in Special Cases").
    Computed once and cached, from the cached {!box}es. *)

val attrs : t -> string list
(** Sorted distinct attributes mentioned by any predicate or value
    constraint. *)

val pp : Format.formatter -> t -> unit
