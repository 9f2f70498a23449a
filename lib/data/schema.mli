(** Relation schemas: ordered, named, typed attributes. *)

type kind = Numeric | Categorical

type attr = { name : string; kind : kind }

type t

val of_names : (string * kind) list -> t
val attrs : t -> attr list
val arity : t -> int

val index : t -> string -> int
(** Position of the attribute; raises [Not_found]. *)

val index_opt : t -> string -> int option
val mem : t -> string -> bool
val attr : t -> string -> attr
val kind : t -> string -> kind
val names : t -> string list
val numeric_names : t -> string list

val concat : t -> t -> t
(** Schema of a product/join; duplicate names from the right side are
    suffixed with ["_r"]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
