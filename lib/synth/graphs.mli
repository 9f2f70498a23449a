(** Random edge tables and exact join-size computation for the join
    experiments (§6.6.3): the randomly populated [edges] tables of the
    triangle-counting comparison and the K-row relations of the acyclic
    chain join. Exact counts let tests verify that every bound dominates
    the truth. *)

val random_edges :
  Pc_util.Rng.t -> a:string -> b:string -> n:int -> vertices:int -> Pc_data.Relation.t
(** [n] directed edges drawn uniformly (with possible repeats) over
    [vertices]² . *)

val triangle_count :
  r:Pc_data.Relation.t -> s:Pc_data.Relation.t -> t:Pc_data.Relation.t -> int
(** |R(a,b) ⋈ S(b,c) ⋈ T(c,a)| by hash join. The relations' first
    attribute joins with the previous relation's second, as in the paper's
    query. *)

val chain_join_count : Pc_data.Relation.t list -> int
(** |R1 ⋈ R2 ⋈ … ⋈ Rk| for binary relations joined on
    (second attribute = next first attribute), by dynamic programming —
    linear in the total edge count. *)
