module Pred = Pc_predicate.Pred
module Relation = Pc_data.Relation

type agg = Count | Sum of string | Avg of string | Min of string | Max of string

type t = { agg : agg; where_ : Pred.t }

let make ?(where_ = Pred.tt) agg = { agg; where_ }
let count ?where_ () = make ?where_ Count
let sum ?where_ a = make ?where_ (Sum a)
let avg ?where_ a = make ?where_ (Avg a)
let min_ ?where_ a = make ?where_ (Min a)
let max_ ?where_ a = make ?where_ (Max a)

let agg_attr t =
  match t.agg with
  | Count -> None
  | Sum a | Avg a | Min a | Max a -> Some a

let check_schema schema t =
  let module S = Pc_data.Schema in
  let needs =
    (match agg_attr t with Some a -> [ (a, S.Numeric) ] | None -> [])
    @ List.map
        (fun atom ->
          ( Pc_predicate.Atom.attr atom,
            match atom with
            | Pc_predicate.Atom.Num_range _ -> S.Numeric
            | _ -> S.Categorical ))
        t.where_
  in
  let kind_name = function S.Numeric -> "numeric" | S.Categorical -> "categorical" in
  match
    List.find_opt
      (fun (a, k) -> (not (S.mem schema a)) || S.kind schema a <> k)
      needs
  with
  | None -> Ok ()
  | Some (a, _) when not (S.mem schema a) ->
      Error (Printf.sprintf "unknown attribute %S in query" a)
  | Some (a, k) ->
      Error
        (Printf.sprintf "attribute %S is %s, the query needs it %s" a
           (kind_name (S.kind schema a)) (kind_name k))

let selection rel t =
  let schema = Relation.schema rel in
  Relation.filter (fun row -> Pred.eval schema t.where_ row) rel

let eval rel t =
  let sel = selection rel t in
  let n = Relation.cardinality sel in
  match t.agg with
  | Count -> Some (float_of_int n)
  | Sum a -> Some (Pc_util.Stat.sum (Relation.column sel a))
  | Avg a -> if n = 0 then None else Some (Pc_util.Stat.mean (Relation.column sel a))
  | Min a ->
      if n = 0 then None else Some (Pc_util.Stat.minimum (Relation.column sel a))
  | Max a ->
      if n = 0 then None else Some (Pc_util.Stat.maximum (Relation.column sel a))

let eval_group_by rel t attr =
  let sel = selection rel t in
  Relation.group_by sel attr
  |> List.map (fun (key, group) -> (key, eval group { t with where_ = Pred.tt }))

let agg_to_string = function
  | Count -> "COUNT(*)"
  | Sum a -> Printf.sprintf "SUM(%s)" a
  | Avg a -> Printf.sprintf "AVG(%s)" a
  | Min a -> Printf.sprintf "MIN(%s)" a
  | Max a -> Printf.sprintf "MAX(%s)" a

let pp ppf t =
  Format.fprintf ppf "SELECT %s WHERE %a" (agg_to_string t.agg) Pred.pp t.where_

let to_string t = Format.asprintf "%a" pp t
