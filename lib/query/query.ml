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
  Relation.filter (Pred.compile (Relation.schema rel) t.where_) rel

(* Rows are scanned in blocks of [block] (a buffer that stays in the
   minor heap; shorter for a shorter relation) in row order, and the
   aggregate folded over each block's matches by [Stat.sum_rows],
   [min_rows] and [max_rows], so every answer is bit-identical to
   [Stat]'s over the selection's column. An aggregated attribute that
   is absent or categorical raises as [Relation.column] of the
   selection would, after the whole selection is tested. *)
let block = 256

let numeric schema a =
  let module S = Pc_data.Schema in
  S.mem schema a && S.kind schema a = S.Numeric

let init t = match t.agg with Min _ -> infinity | Max _ -> neg_infinity | _ -> 0.

(* The fold for an aggregated attribute [attr] that is numeric (or no
   attribute at all). *)
let scan rel t attr =
  let n = Relation.cardinality rel in
  let matches = Pred.scanner rel t.where_ in
  let xs = match attr with Some a -> Relation.numbers rel a | None -> [||] in
  let len = max 1 (min block n) in
  let rows = Array.make len 0 in
  let count = ref 0 in
  let acc = ref (init t) in
  let from = ref 0 in
  while !from < n do
    let k = matches !from rows in
    (match t.agg with
    | Count -> ()
    | Sum _ | Avg _ -> acc := Pc_util.Stat.sum_rows !acc xs rows k
    | Min _ -> acc := Pc_util.Stat.min_rows !acc xs rows k
    | Max _ -> acc := Pc_util.Stat.max_rows !acc xs rows k);
    count := !count + k;
    from := !from + len
  done;
  (!count, !acc)

let fold rel t =
  match agg_attr t with
  | Some a when not (numeric (Relation.schema rel) a) ->
      let sel = selection rel t in
      if not (Relation.is_empty sel) then ignore (Relation.column sel a);
      (* past [column], the selection is empty *)
      (0, init t)
  | attr -> scan rel t attr

let eval rel t =
  match agg_attr t with
  | Some a when not (numeric (Relation.schema rel) a) ->
      let sel = selection rel t in
      let is_sum = match t.agg with Sum _ -> true | _ -> false in
      if is_sum || not (Relation.is_empty sel) then ignore (Relation.column sel a);
      (* past [column], the selection is empty *)
      if is_sum then Some 0. else None
  | attr -> (
      let count, acc = scan rel t attr in
      match t.agg with
      | Count -> Some (float_of_int count)
      | Sum _ -> Some acc
      | _ when count = 0 -> None
      | Avg _ -> Some (acc /. float_of_int count)
      | Min _ | Max _ -> Some acc)

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
