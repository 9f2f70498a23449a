module Q = Pc_query.Query
module Atom = Pc_predicate.Atom

type result = {
  groups : (Pc_data.Value.t * Bounds.answer) list;
  residual : Bounds.answer option;
}

let keys_of_pred by pred =
  List.concat_map
    (fun atom ->
      match atom with
      | Atom.Cat_eq (a, s) when a = by -> [ s ]
      | Atom.Cat_in (a, ss) when a = by -> ss
      | Atom.Cat_eq _ | Atom.Cat_in _ | Atom.Cat_neq _ | Atom.Cat_not_in _
      | Atom.Num_range _ ->
          [])
    pred

let known_keys set ~certain ~by =
  let schema = Pc_data.Relation.schema certain in
  (match Pc_data.Schema.kind schema by with
  | Pc_data.Schema.Categorical -> ()
  | Pc_data.Schema.Numeric ->
      invalid_arg "Group_by: grouping attribute must be categorical");
  let from_certain = Pc_data.Relation.distinct_strings certain by in
  let from_pcs =
    List.concat_map (fun (pc : Pc.t) -> keys_of_pred by pc.Pc.pred) (Pc_set.pcs set)
  in
  List.sort_uniq String.compare (from_certain @ from_pcs)

(* Can a missing row take a key outside [keys]? True when some
   constraint's predicate is satisfiable with [by ∉ keys]. *)
let admits_residual set ~by ~keys =
  List.exists
    (fun (pc : Pc.t) ->
      let cnf =
        Pc_predicate.Cnf.conj
          (Pc_predicate.Cnf.of_pred pc.Pc.pred)
          [ [ Atom.Cat_not_in (by, keys) ] ]
      in
      Pc_predicate.Sat.check cnf)
    (Pc_set.pcs set)

let bound ?opts set ~certain ~by (query : Q.t) =
  let keys = known_keys set ~certain ~by in
  let groups =
    List.map
      (fun key ->
        let where_ = query.Q.where_ @ [ Atom.cat_eq by key ] in
        ( Pc_data.Value.Str key,
          Bounds.bound_with_certain ?opts set ~certain { query with Q.where_ } ))
      keys
  in
  let residual =
    if keys <> [] && not (admits_residual set ~by ~keys) then None
    else begin
      let where_ = query.Q.where_ @ [ Atom.Cat_not_in (by, keys) ] in
      Some (Bounds.bound ?opts set { query with Q.where_ })
    end
  in
  { groups; residual }
