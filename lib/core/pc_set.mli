(** Predicate-constraint sets S = {π₁, …, πₙ} (paper §3.2). *)

type t

val make : Pc.t list -> t
val of_array : Pc.t array -> t
val pcs : t -> Pc.t list
val size : t -> int
val get : t -> int -> Pc.t

val filter : (int -> bool) -> t -> t
(** [filter f t]: the PCs at the indices [f] keeps, in order. The subset
    shares [t]'s cached table (built first if it was not yet) through
    {!rows}, without recomputation or copying. *)

val map_freqs : (int -> Pc.t -> int * int) -> t -> t
(** [map_freqs f t]: [t] with PC [i]'s frequency range replaced by
    [f i (get t i)], keeping its name, predicate, ν and position (PC
    [i] itself where its range is unchanged). No cached value depends
    on a frequency, so the result shares [t]'s {!table}, {!rows} and
    disjointness flag, computed or not: the first of the two sets to
    compute one computes it for both. Raises [Invalid_argument] as
    {!Pc.make} on an invalid range. *)

(** {2 The flat table} *)

val table : t -> Box_table.t
(** The flat table of every PC's predicate hull, ν ranges and compiled
    decomposition rows, built for the whole set on first use (not by
    {!make}) and cached; {!filter} shares it. Raises
    [Box]'s [Invalid_argument] when the set's predicates use one
    attribute as both kinds. *)

val rows : t -> int array
(** PC [i]'s row of {!table}: the identity unless the set was
    {!filter}ed, when its rows are the parent's. Shared: do not mutate. *)

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
    Computed once and cached, from the flat {!table}. *)

val attrs : t -> string list
(** Sorted distinct attributes mentioned by any predicate or value
    constraint. *)

val pp : Format.formatter -> t -> unit
