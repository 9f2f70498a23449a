(** Synthetic stand-in for the Airbnb NYC 2019 listings dataset of §6.6.1.
    Reproduces the features the experiment depends on: spatial clustering
    of listings into borough-like blobs, log-normally distributed (highly
    skewed) prices whose level depends on location, and a skewed review
    count.

    Schema: latitude, longitude, price, reviews (numeric); room_type
    (categorical). *)

val generate : ?clusters:int -> Pc_util.Rng.t -> rows:int -> Pc_data.Relation.t
(** [clusters] defaults to 5 (the boroughs). *)
