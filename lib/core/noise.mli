(** Controlled corruption of PC value bounds, for the robustness study
    (paper §6.3.2, Figure 6): independent Gaussian noise added to the
    minimum and maximum of each attribute range in each PC. Noisy PCs may
    no longer hold on the data — that is the point: the experiment
    measures how failure rates degrade. *)

val corrupt_values :
  Pc_util.Rng.t ->
  sigma:(string * float) list ->
  Pc.t list ->
  Pc.t list
(** [corrupt_values rng ~sigma pcs] perturbs each finite value-range
    endpoint of attribute [a] by [N(0, sigma_a)]. Endpoints are swapped if
    the noise inverts them, so the results are still well-formed PCs.
    Attributes absent from [sigma] are left untouched. *)

val corrupt_values_systematic :
  Pc_util.Rng.t -> sigma:(string * float) list -> Pc.t list -> Pc.t list
(** Like {!corrupt_values} but with a *systematic* component: one shared
    N(0,1) draw per attribute scales [sigma_a] and shifts every
    constraint's range in the same direction (an analyst whose mis-belief
    is consistent across the constraints she wrote), plus a smaller
    idiosyncratic per-endpoint term. *)

val corrupt_values_relative :
  Pc_util.Rng.t -> attrs:string list -> scale:float -> Pc.t list -> Pc.t list
(** Like {!corrupt_values} but the noise is proportional to each
    constraint's own value dispersion (width/4 ≈ one standard deviation
    of the summarized values) and has a *systematic* component shared by
    every constraint on the same attribute — modelling an analyst whose
    mis-belief is consistent across the constraints she wrote — plus a
    smaller idiosyncratic per-endpoint term. A "k SD" mis-specification
    then means constraints are wrong by about k of their own standard
    deviations, regardless of how coarse or fine they are. *)
