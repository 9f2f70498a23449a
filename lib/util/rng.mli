(** Seeded pseudo-random number generation.

    Every randomized component of the library threads an explicit [Rng.t]
    so that all experiments are reproducible from a single integer seed.
    Wraps [Random.State] and adds the distributions the generators and
    baselines need. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi). Requires [lo <= hi]. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal sample via Box–Muller. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto(scale, shape): heavy-tailed, support [scale, ∞). *)

val lognormal : t -> mu:float -> sigma:float -> float

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples a rank in [1, n] with probability proportional
    to [1 / rank^s], by inverse-CDF over precomputed weights (O(log n)
    after an O(n) table build per call; use {!zipf_table} for bulk). *)

val zipf_table : n:int -> s:float -> float array
(** Cumulative probability table for {!zipf_sample}. *)

val zipf_sample : t -> float array -> int
(** [zipf_sample t table] draws a 1-based rank using a table from
    {!zipf_table}. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k xs] draws [min k (length xs)] distinct
    elements. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
