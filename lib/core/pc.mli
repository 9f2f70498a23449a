(** A single predicate-constraint π = (ψ, ν, κ) (paper, Definition 3.1):
    for every missing row that satisfies the predicate ψ, its attribute
    values are bounded by ν, and the number of such rows lies in
    κ = [kl, ku]. *)

type t = private {
  name : string;
  pred : Pc_predicate.Pred.t;  (** ψ *)
  values : (string * Pc_interval.Interval.t) list;  (** ν, one range per attribute *)
  freq_lo : int;  (** kl ≥ 0 *)
  freq_hi : int;  (** ku ≥ kl *)
}

val make :
  ?name:string ->
  pred:Pc_predicate.Pred.t ->
  values:(string * Pc_interval.Interval.t) list ->
  freq:int * int ->
  unit ->
  t
(** Raises [Invalid_argument] when [kl < 0], [kl > ku], or [values] has
    duplicate attributes. *)

val value_interval : t -> string -> Pc_interval.Interval.t
(** The ν range for an attribute; [Interval.full] when unconstrained. *)

val value_attrs : t -> string list

val holds : Pc_data.Relation.t -> t -> bool
(** [R |= π]: constraints are efficiently testable on historical data
    (paper §1, desideratum 1). *)

val violations : Pc_data.Relation.t -> t -> string list
(** Human-readable reasons why [holds] fails; empty when it holds. *)

val pp : Format.formatter -> t -> unit
