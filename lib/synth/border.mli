(** Synthetic stand-in for the Bureau of Transportation Statistics border
    crossing dataset of §6.6.2: per-port, per-date summary counts. The
    skew the experiment relies on comes from Zipfian port popularity (a
    few huge ports, many tiny ones) and a mild seasonal cycle.

    Schema: port, date (day index), value (crossings) — numeric; measure
    (vehicle type) — categorical. *)

val generate : ?ports:int -> ?days:int -> Pc_util.Rng.t -> rows:int -> Pc_data.Relation.t
(** [ports] defaults to 40, [days] to 365. *)
