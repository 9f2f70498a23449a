(** The one float codec at every text boundary: the DSL printer, the
    wire JSON, CSV, the Prometheus exposition and the CLI's range
    lines all print numbers with {!to_string}.

    A range is only as hard as its printed endpoints: an upper end
    rounded to nearest at 12 digits can come back below the computed
    one. Every finite float this prints reads back bit-equal with
    [float_of_string]. *)

val to_string : float -> string
(** Integers of magnitude below 2{^53} print bare ([42], [-0]);
    anything else prints as the shortest of [%.15g], [%.16g] and
    [%.17g] that reads back bit-equal. Non-finite values print as
    [inf], [-inf] and [nan]; callers whose format cannot carry them
    map them first. *)
