(** Satisfiability of cell expressions (CNF over interval atoms).

    This is the library's substitute for the paper's use of Z3: the paper
    restricts predicates to conjunctions of ranges and inequalities exactly
    so that this decision problem is easy. The solver does DPLL-style
    branching over clause literals with an attribute-box store; pruning is
    by box emptiness. Sound and complete over independent attributes
    (numeric: interval domains; categorical: string domains, finite when a
    universe is supplied).

    Calls are counted in a global statistic so the decomposition
    experiments (Figure 7) can report solver effort. Counters are
    {!Atomic} and therefore remain accurate when several server threads
    solve concurrently. A caller that needs its own exact reading (one cell
    decomposition among concurrent ones) counts into a {!tally} and
    {!flush}es it once. *)

type tally = { mutable searches : int; mutable ops : int }
(** Solver effort counted locally: [searches] solver searches and [ops]
    atom-level box operations. *)

val tally : unit -> tally
(** A zeroed tally. *)

val flush : tally -> unit
(** Add a tally to the global {!calls} and the [sat.atom_ops] counter. *)

val check : ?tally:tally -> ?box:Box.t -> Cnf.t -> bool
(** [check cnf] decides satisfiability starting from [box]
    (default {!Box.top}, or a box built with {!Box.with_universe} to bound
    categorical domains). The search and its atom operations are counted
    in [tally] when given, else in the global counters. *)

val solve : ?tally:tally -> ?box:Box.t -> Cnf.t -> Box.t option
(** Like {!check} but returns a witness box on success: [box] narrowed by
    one atom of each clause. *)

val calls : unit -> int
(** Number of solver searches ({!check}/{!solve}) since {!reset_calls},
    flushed tallies included. *)

val reset_calls : unit -> unit
(** Reset both {!calls} and the [sat.atom_ops] counter. *)
