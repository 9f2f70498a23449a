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
    map them first.

    Two cases print without the C formatter: an integer through a
    digit loop, and a short decimal [m / 10{^k}] ([|m| < 10{^15}],
    [k >= 1], found by a division that must give back exactly the
    double) as [%.15g] lays it out in fixed notation, since such a
    decimal is what [%.15g] prints and it reads back. Everything else,
    exponent notation included, takes the [snprintf] round trip. *)

val add : Buffer.t -> float -> unit
(** Append [to_string x] without building the string. *)

val add_hex : Buffer.t -> float -> unit
(** Append [x] in hexadecimal, byte for byte what [Printf.sprintf "%h"]
    prints ([0x1.8p+1], [-0x0p+0], [0x0.0000000000001p-1022],
    [infinity], [nan]): exact, so equal text means equal bits for any
    non-NaN value. The cache keys use it. *)
