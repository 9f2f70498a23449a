(** Floating-point comparisons with explicit tolerances.

    The LP/MILP stack and the bound computations work in floating point.
    All tolerance-sensitive comparisons go through this module so that the
    tolerance policy is defined in exactly one place. *)

val eps : float
(** Default absolute tolerance, [1e-9]. *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] is true when [a] and [b] differ by at most [eps]
    absolutely, or relatively for large magnitudes. *)

val leq : ?eps:float -> float -> float -> bool
(** [leq a b] is [a <= b + eps] (tolerant less-or-equal). *)

val lt : ?eps:float -> float -> float -> bool
(** Strict less-than with tolerance: [a < b - eps]. *)

val is_integer : ?eps:float -> float -> bool
(** True when [x] is within [eps] of its nearest integer. *)

val round_to_int : float -> int
(** Nearest integer as [int]. Raises [Invalid_argument] on non-finite
    input or magnitude beyond [max_int]. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to [lo, hi]. Requires [lo <= hi]. *)
