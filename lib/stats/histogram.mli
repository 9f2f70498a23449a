(** Equi-width histogram baseline (§6.1.3), realized as the disjoint-PC
    special case the paper identifies ("Histograms are a dense 1-D
    special case of our work"): one bucket per grid cell with its exact
    row count and value spread, answered through the PC bound machinery —
    so like PCs, histograms never fail when their contents are exact. *)

val estimator :
  Pc_data.Relation.t -> attrs:string list -> bins:int -> Estimator.t
