(** The allocation program's frequency rows as [Simplex.constr] lists,
    as [Bounds.prepare] built them before it laid them out column by
    column ({!Pc_core.Bounds.allocation_columns}): per PC in order, a
    PC covering two or more cells conses its upper row and, when its kl
    is positive, its lower row onto the list, each over its cells
    ascending and then its consumption column. *)

val rows :
  cells:int list array ->
  kl:int array ->
  ku:int array ->
  consumption:bool ->
  int * Pc_lp.Simplex.constr list
(** [(n_vars, rows)]: the cells are variables [0, Array.length cells),
    then one consumption column per covering PC when [consumption]. *)

val any_row : n_cells:int -> Pc_lp.Simplex.constr list -> Pc_lp.Simplex.constr list
(** The rows after "some cell holds a row" ([Σ x ≥ 1]). *)
