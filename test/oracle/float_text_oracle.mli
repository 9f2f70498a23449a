(** The number printer [Pc_util.Float_text.to_string] replaced, kept as
    its oracle: the library's printer must match it byte for byte on
    every double. *)

val to_string : float -> string
