(** JSON values, one parser and one printer (no external
    dependencies).

    The bound server's line-oriented protocol ([Pc_server]) reads and
    writes these values, and every JSON artifact — Chrome traces,
    metrics dumps, workload summaries — is built as one and printed by
    {!to_string}. The printer emits RFC 8259 output: non-finite numbers
    become [null], never the [NaN] / [Infinity] tokens the parser
    rejects. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

val parse : string -> (value, string) result
(** One JSON value spanning the whole input (surrounding whitespace
    allowed). [\uXXXX] escapes are decoded to UTF-8; surrogate pairs are
    combined. *)

val validate : string -> (unit, string) result
(** [Ok ()] when the whole input is one valid JSON value — what tests
    and CI assert of the artifacts; [Error msg] with a position
    otherwise. *)

val to_string : value -> string
(** Compact single-line rendering; always valid JSON. Numbers print
    through {!Pc_util.Float_text.to_string}, so a finite [Num] parses
    back bit-equal. *)

(* -------- accessors (shape-checking helpers) -------- *)

val member : string -> value -> value option
(** Field of an [Obj] ([None] on missing field or non-object). *)

val to_str : value -> string option
val to_num : value -> float option
val to_bool : value -> bool option
