(** Predicates: conjunctions of atoms, as restricted by the paper (§3.1).

    [tt] (the empty conjunction) is the tautology used for constraints that
    apply to every missing row, e.g. the paper's
    [c2 : TRUE => (0 <= price <= 149.99), (0, 100)]. *)

type t = Atom.t list
(** Conjunction; [[]] is True. *)

val tt : t
val conj : Atom.t list -> t
val eval : Pc_data.Schema.t -> t -> Pc_data.Relation.tuple -> bool
val attrs : t -> string list
(** Sorted distinct attribute names mentioned. *)

val to_box : t -> Box.t option
(** Solved form; [None] when the conjunction is unsatisfiable on its own. *)

val satisfiable : t -> bool

val implies_box : Box.t -> t -> bool
(** [implies_box box p]: every point of [box] satisfies [p]. Used by the
    decomposition to skip provably-redundant solver calls. Sound but not
    complete for categorical exclusions over an open universe. *)

val equal : t -> t -> bool

val canonical : t -> t
(** Canonical form: atoms sorted and deduplicated, categorical sets
    normalized. Two predicates that are syntactically equal up to atom
    order and set order share one canonical form. *)

val canonical_key : t -> string
(** Deterministic, collision-free string rendering of {!canonical}:
    floats are printed exactly (hex notation) and strings escaped, so
    equal keys imply equal canonical predicates. Used as the query
    component of the server's bound-cache key. *)

val add_canonical_key : Buffer.t -> t -> unit
(** Append {!canonical_key}'s bytes. *)

val add_quoted : Buffer.t -> string -> unit
(** Append the string as [Printf]'s [%S] prints it: quoted, with
    OCaml escapes. The key renderers' string form. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
