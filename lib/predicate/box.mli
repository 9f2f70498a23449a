(** A box is the solved form of a conjunction of atoms: one independent
    constraint per attribute. Boxes are the workhorse of satisfiability
    testing — a conjunction is satisfiable iff its box is non-empty, and
    attributes never interact.

    Categorical attributes over an unbounded string universe: an exclusion
    constraint alone is always satisfiable. When a finite universe is
    supplied ({!with_universe}), exclusions that rule out every universe
    value make the box empty. *)

type cat = In of string list | Not_in of string list
(** [In] is a non-empty allowed set; [Not_in] an excluded set (possibly
    empty, meaning unconstrained). *)

type t

val top : t
(** The unconstrained box. *)

val with_universe : (string * string list) list -> t
(** [with_universe u] is {!top} plus finite domains for the listed
    categorical attributes. *)

val add_atom : t -> Atom.t -> t option
(** Conjoin one atom; [None] when the result is empty. Raises
    [Invalid_argument] when the attribute is used with conflicting kinds. *)

val kind_clash : string -> 'a
(** Raise the [Invalid_argument] {!add_atom} raises for an attribute
    used with conflicting kinds. *)

val add_pred : t -> Atom.t list -> t option
(** Conjoin a conjunction of atoms. *)

val of_pred : Atom.t list -> t option

val num_interval : t -> string -> Pc_interval.Interval.t
(** Constraint on a numeric attribute ([Interval.full] if absent). *)

val cat_constraint : t -> string -> cat option
(** Constraint on a categorical attribute; [None] if unconstrained. *)

val witness : t -> (string * Pc_data.Value.t) list
(** One satisfying assignment for the constrained attributes. For an
    exclusion constraint over an open universe, invents a fresh string. *)
