(** Elastic-sensitivity baseline (Johnson, Near, Song, VLDB 2018) for
    bounding counting queries over equi-joins, as compared against in the
    paper's Figure 12.

    Elastic sensitivity bounds how much a join count can change when one
    row is added at distance k from the database: the product of the other
    relations' maximum join-key frequencies at that distance, each itself
    bounded by (mf + k). With only cardinality information available, the
    max frequency of a relation of size N is bounded by N. Summing the
    sensitivities while growing the database from empty to its full size
    yields a hard bound on the query result — the bound our
    worst-case-optimal-join formulation beats by orders of magnitude. *)

val sensitivity_at :
  sizes:(string * float) list -> Hypergraph.t -> distance:float -> float
(** S(k): the largest one-row impact at distance k. *)

val triangle_bound : n:float -> float
(** Closed form of Σ_{k=0}^{K-1} S(k), K the total number of rows, for
    the triangle query on three relations of size [n]. *)

val chain_bound : n:float -> k:int -> float
(** Σ_{k=0}^{K-1} S(k) for the k-relation chain join with equal sizes. *)
