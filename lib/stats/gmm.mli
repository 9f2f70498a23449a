(** Diagonal-covariance Gaussian Mixture Model fitted by
    expectation-maximization — the generative baseline of §6.1.2. The
    fitted model simulates missing datasets; querying the simulations
    yields a range of likely values (min/max over trials). *)

type t

val fit :
  ?iters:int ->
  ?k:int ->
  Pc_util.Rng.t ->
  Pc_data.Relation.t ->
  attrs:string list ->
  t
(** EM with k-means++-style seeding; [k] defaults to 3 components, [iters]
    to 30. Raises [Invalid_argument] on an empty relation or non-numeric
    attributes. *)

val log_likelihood : t -> Pc_data.Relation.t -> float
(** Mean per-row log density — used by tests to check EM improves fit. *)

val sample : Pc_util.Rng.t -> t -> n:int -> Pc_data.Relation.t
(** Synthetic relation over the fitted attributes. *)

val estimator :
  Pc_util.Rng.t -> t -> n_missing:int -> trials:int -> Estimator.t
(** Simulates [trials] missing partitions of [n_missing] rows and returns
    the envelope of the query answers across them. *)
