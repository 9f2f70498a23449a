(** Concrete missing-data instances: relations that *satisfy* a
    predicate-constraint set.

    The paper's §4 claims its bounds are tight — "the bound found by the
    optimization problem is a valid relation that satisfies the
    constraints". This module makes that operational: it materializes
    such relations, both arbitrary ones (for fuzzing: any sampled
    instance's aggregate must fall inside the computed range) and
    worst-case ones ({!witness_max} reconstructs a relation attaining the
    SUM/COUNT upper bound, which is how the tightness claim is tested in
    this repository).

    Sampling works on the solved structure: a feasible integer cell
    allocation (from the MILP, randomized via a random objective), then
    rows drawn inside each cell's witness region intersected with the
    active value constraints.

    A test oracle: only the test suite links it. *)

open Pc_core

val sample :
  ?opts:Bounds.opts ->
  Pc_util.Rng.t ->
  Pc_set.t ->
  schema:Pc_data.Schema.t ->
  Pc_data.Relation.t option
(** A random relation over [schema] satisfying the constraint set, or
    [None] when the set is infeasible. Every attribute of [schema] not
    constrained in a cell is filled with an arbitrary in-domain value.
    Categorical attributes constrained only by exclusion get a fresh
    string. *)

val witness_max :
  ?opts:Bounds.opts ->
  Pc_set.t ->
  schema:Pc_data.Schema.t ->
  Pc_query.Query.t ->
  Pc_data.Relation.t option
(** A relation approximately attaining the COUNT/SUM upper bound of the
    query (exactly, when the solver closed its search and the value
    suprema are attained). Raises [Invalid_argument] for AVG/MIN/MAX —
    their extremal instances are the per-cell constructions already
    implied by {!Bounds}. *)

val audit :
  ?opts:Bounds.opts ->
  ?samples:int ->
  Pc_util.Rng.t ->
  Pc_set.t ->
  schema:Pc_data.Schema.t ->
  Pc_query.Query.t ->
  (unit, string) result
(** Witness-based self-audit of {!Bounds.bound}: materializes up to
    [samples] (default 5) random instances of the constraint set and
    checks each instance's actual aggregate lands inside the reported
    range (and that [Infeasible] really means no instance exists). Any
    escape is a soundness bug and is reported with the offending value. *)
