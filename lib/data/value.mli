(** Atomic attribute values: numbers or strings.

    Aggregates are only defined over numeric values; categorical values
    participate in predicates (equality / set membership). *)

type t = Num of float | Str of string

val num : float -> t
val str : string -> t

val as_num : t -> float
(** Raises [Invalid_argument] on a [Str]. *)

val as_str : t -> string
(** Raises [Invalid_argument] on a [Num]. *)

val compare : t -> t -> int
(** Numbers order before strings; numbers by [Float.compare], strings
    lexicographically. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> t
(** Parses a float when possible, otherwise keeps the string. *)
