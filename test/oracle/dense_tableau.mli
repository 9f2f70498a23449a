(** The pre-revised dense-tableau simplex, retained as a reference oracle.

    This is the bounded-variable two-phase primal simplex that
    {!Pc_lp.Simplex} used before it was reworked into a sparse revised
    simplex: a dense [float array array] tableau holding [B⁻¹A], full
    Gauss–Jordan pivots (O(mn) each), Dantzig pricing with a Bland
    fallback on stall. Cold solves only — no warm starts, no budgets,
    no fault injection, and {e no registered instruments}, so linking it
    does not change the [--metrics] key set.

    It exists for two consumers:

    - the qcheck oracle in [test/test_lp.ml], which pits the revised
      simplex against this implementation on random bounded LPs — two
      independent codebases agreeing on optima is the cross-check the
      rewrite is gated on; and
    - [bench --baseline]'s Fig. 8 disjoint-partition scaling micro,
      which records dense-vs-revised wall time and pivot counts.

    Answers use {!Pc_lp.Simplex}'s problem/outcome types so callers compare
    outcomes directly; its solutions carry empty [duals] and
    [reduced_costs], since only optima are compared. The same post-solve self-check semantics apply:
    an optimal answer that fails residual checks degrades to
    [Stopped (Numeric _)]. *)

val solve : Pc_lp.Simplex.problem -> Pc_lp.Simplex.outcome
(** Cold two-phase dense-tableau solve. Raises [Invalid_argument] on
    malformed input, exactly as {!Pc_lp.Simplex.solve} does. *)

val solve_stats : Pc_lp.Simplex.problem -> Pc_lp.Simplex.outcome * int
(** Like {!solve}, additionally returning the pivot count (phase 1 +
    phase 2, bound flips included) — the denominator of the bench's
    pivot-weighted time comparison. *)
