(** Atomic constraints over a single attribute.

    Predicates in the PC framework are conjunctions of these atoms
    (paper §3.1): numeric range constraints and categorical
    (in)equalities/memberships. *)

type t =
  | Num_range of string * Pc_interval.Interval.t
      (** attribute value lies in the interval *)
  | Cat_eq of string * string
  | Cat_neq of string * string
  | Cat_in of string * string list
  | Cat_not_in of string * string list

val attr : t -> string

val compile : Pc_data.Schema.t -> t -> Pc_data.Relation.tuple -> bool
(** [compile schema t] looks the attribute's position up once and
    returns the row test. The test raises [Not_found] when the
    attribute is absent from the schema, and [Invalid_argument] when
    the row holds a value of the wrong kind there (or is too short);
    [compile] itself never raises, so a test that is never applied
    never raises. *)

val eval : Pc_data.Schema.t -> t -> Pc_data.Relation.tuple -> bool
(** [eval] is {!compile}: apply [eval schema t] once and reuse the
    test for every row. *)

val negate : t -> t list
(** Negation as a disjunction of atoms (0, 1, or 2 of them — a bounded
    numeric range negates to two rays). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Convenience constructors. *)

val between : string -> float -> float -> t
(** Closed range [lo, hi]. *)

val at_least : string -> float -> t
val at_most : string -> float -> t
val greater_than : string -> float -> t
val less_than : string -> float -> t
val num_eq : string -> float -> t
val cat_eq : string -> string -> t
