(** Reproduction harness: one entry per table and figure of the paper's
    evaluation (§6), plus ablations of this implementation's design
    choices. Each experiment prints its series in the same shape the
    paper reports (axes/rows/columns), using synthetic stand-ins for the
    original datasets (see DESIGN.md for the substitution rationale).

    All experiments are deterministic given [seed]. [scale] multiplies
    dataset sizes and [queries] the workload sizes, so the full suite can
    be run quickly (scale < 1) or at paper-like scale (scale ≥ 1). *)

type config = { seed : int; scale : float; queries : int }

val default_config : config

val fig1_extrapolation : config -> unit
(** Figure 1: simple extrapolation's relative error vs missing fraction
    under value-correlated missingness. *)

val fig3_count : config -> unit
(** Figure 3: failure rate and median over-estimation of COUNT queries on
    the sensor dataset across missing fractions. *)

val fig4_sum : config -> unit
(** Figure 4: same for SUM(light). *)

val tab1_confidence_tradeoff : config -> unit
(** Table 1: uniform-sampling failure/accuracy across confidence levels
    vs Corr-PC. *)

val fig5_sample_size : config -> unit
(** Figure 5: sampling accuracy at 1×/2×/5×/10× sample sizes. *)

val fig6_noise : config -> unit
(** Figure 6: failure rates of Corr-PC, Overlapping-PC, US-10n under
    0–3 SD bound corruption. *)

val fig7_decomposition : config -> unit
(** Figure 7: solver calls for naive vs DFS vs DFS+rewriting cell
    decomposition. *)

val fig8_partition_scaling : config -> unit
(** Figure 8: per-query solve time vs disjoint partition size. *)

val fig9_min_max_avg : config -> unit
(** Figure 9: tightness for MIN/MAX/AVG queries. *)

val fig10_listings : config -> unit
(** Figure 10: baseline tightness on the Airbnb-like dataset. *)

val fig11_border : config -> unit
(** Figure 11: baseline tightness on the border-crossing-like dataset. *)

val fig12_joins : config -> unit
(** Figure 12: triangle-count and acyclic-chain join bounds, PC/GWE vs
    elastic sensitivity (and the naive Cartesian bound). *)

val tab2_failure_census : config -> unit
(** Table 2: failure counts over random predicates for every baseline ×
    dataset × aggregate × predicate attributes. *)

val ablation_earlystop : config -> unit
(** Early-stop depth vs decomposition effort and bound tightness
    (Optimization 4's trade-off). *)

val ablation_milp : config -> unit
(** Root-LP-only vs full branch-and-bound tightness. *)

val ablation_tighten : config -> unit
(** Effect of clipping cell value bounds by predicate/query ranges. *)

val ablation_overlap_scaling : config -> unit
(** Decomposition and solve cost as the number of overlapping constraints
    grows. *)

val ext_advisor : config -> unit
(** Partition-attribute selection scored by realized bound tightness. *)

val ext_hybrid : config -> unit
(** Intersection of the hard range with a sampling CI (paper §7's
    anticipated mixed system). *)

val all : (string * string * (config -> unit)) list
(** (id, description, run) for every experiment above. *)
