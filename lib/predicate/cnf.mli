(** Cell expressions in conjunctive normal form over interval atoms.

    A cell of the decomposition (paper §4.1) is
    [ψ_{i1} ∧ … ∧ ψ_{ik} ∧ ¬ψ_{j1} ∧ … ∧ ¬ψ_{jm}]: positive predicates
    contribute unit clauses per atom, each negated predicate contributes a
    single clause (the disjunction of its negated atoms). *)

type clause = Atom.t list
(** Disjunction; [[]] is False. *)

type t = clause list
(** Conjunction of clauses; [[]] is True. *)

val of_pred : Pred.t -> t
val of_neg_pred : Pred.t -> t
(** [of_neg_pred p] is [¬p] as CNF: one clause. The negation of the
    tautology is False (the single empty clause). *)

val conj : t -> t -> t
val eval : Pc_data.Schema.t -> t -> Pc_data.Relation.tuple -> bool
