(** Predicates: conjunctions of atoms, as restricted by the paper (§3.1).

    [tt] (the empty conjunction) is the tautology used for constraints that
    apply to every missing row, e.g. the paper's
    [c2 : TRUE => (0 <= price <= 149.99), (0, 100)]. *)

type t = Atom.t list
(** Conjunction; [[]] is True. *)

val tt : t
val conj : Atom.t list -> t
val compile : Pc_data.Schema.t -> t -> Pc_data.Relation.tuple -> bool
(** [compile schema p] resolves every atom against [schema] once
    ({!Atom.compile}) and returns the row test: the atoms in order,
    stopping at the first that fails. Nothing raises at compile time;
    the test raises what the first atom it reaches that cannot be
    evaluated raises ([Not_found] for an absent attribute,
    [Invalid_argument] for a value of the wrong kind). *)

val eval : Pc_data.Schema.t -> t -> Pc_data.Relation.tuple -> bool
(** [eval] is {!compile}: apply [eval schema p] once and reuse the test
    for every row. *)

val scanner : Pc_data.Relation.t -> t -> int -> int array -> int
(** [scanner rel p] resolves [p] against [rel] once and returns [scan].
    [scan from rows] tests the tuples of [rel] from index [from] on, as
    many as [rows] holds (fewer at the end of the relation), writes the
    index of each that satisfies [p] to [rows] in tuple order, and
    returns how many there are; past that count the contents of [rows]
    are unspecified. The answers, and any exception with the tuple it
    is raised on, are those of [compile (Relation.schema rel) p] on
    each tested tuple in order. When every atom names an attribute of
    its own kind, range atoms read [rel]'s cached columns
    ({!Pc_data.Relation.numbers}, filled by [scanner]) and categorical
    atoms the tuples. *)

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
