(** Reproduction harness: one entry per table and figure of the paper's
    evaluation (§6), plus ablations of this implementation's design
    choices. Each experiment prints its series in the same shape the
    paper reports (axes/rows/columns), using synthetic stand-ins for the
    original datasets (see DESIGN.md for the substitution rationale).

    All experiments are deterministic given [seed]. [scale] multiplies
    dataset sizes and [queries] the workload sizes, so the full suite can
    be run quickly (scale < 1) or at paper-like scale (scale ≥ 1). *)

type config = { seed : int; scale : float; queries : int }

val fig7_decomposition : config -> unit
(** Figure 7: solver calls for naive vs DFS vs DFS+rewriting cell
    decomposition. *)

val fig12_joins : config -> unit
(** Figure 12: triangle-count and acyclic-chain join bounds, PC/GWE vs
    elastic sensitivity (and the naive Cartesian bound). *)

val ablation_milp : config -> unit
(** Root-LP-only vs full branch-and-bound tightness. *)

val all : (string * string * (config -> unit)) list
(** (id, description, run) for every experiment, the three above
    included. *)
