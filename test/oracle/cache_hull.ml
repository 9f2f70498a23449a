module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module Schema = Pc_data.Schema
module Cache = Pc_server.Cache

(* [ranges] is [None] when some atom cannot be evaluated against the
   schema, otherwise the column and interval of every non-full numeric
   atom. *)
type compiled = {
  ranges : (int * I.t) array option;
  test : Pc_data.Relation.tuple -> bool;
}

let compile schema (where_ : Pred.t) : compiled =
  let test = Pred.compile schema where_ in
  let exception Unevaluable in
  let column a kind =
    match Schema.index_opt schema a with
    | Some i when (Schema.attr schema a).Schema.kind = kind -> i
    | _ -> raise Unevaluable
  in
  match
    List.filter_map
      (function
        | Atom.Num_range (a, iv) ->
            let i = column a Schema.Numeric in
            if I.equal iv I.full then None else Some (i, iv)
        | atom ->
            ignore (column (Atom.attr atom) Schema.Categorical);
            None)
      where_
  with
  | atoms -> { ranges = Some (Array.of_list atoms); test }
  | exception Unevaluable -> { ranges = None; test }

type hulls = { lo : float array; hi : float array }

let hulls schema tuples =
  let attrs = Array.of_list (Schema.attrs schema) in
  let n = Array.length attrs in
  let lo = Array.make n Float.infinity and hi = Array.make n Float.neg_infinity in
  let rec fits row i =
    i = n
    ||
    match (attrs.(i).Schema.kind, row.(i)) with
    | Schema.Numeric, Pc_data.Value.Num x ->
        if x < lo.(i) then lo.(i) <- x;
        if x > hi.(i) then hi.(i) <- x;
        fits row (i + 1)
    | Schema.Categorical, Pc_data.Value.Str _ -> fits row (i + 1)
    | _ -> false
  in
  if Array.for_all (fun row -> Array.length row >= n && fits row 0) tuples then
    Some { lo; hi }
  else None

let misses (iv : I.t) ~lo ~hi =
  lo > hi
  || not
       ((match iv.I.lo with
        | I.Neg_inf -> true
        | I.Pos_inf -> false
        | I.Closed l -> hi >= l
        | I.Open l -> hi > l)
       &&
       match iv.I.hi with
       | I.Pos_inf -> true
       | I.Neg_inf -> false
       | I.Closed u -> lo <= u
       | I.Open u -> lo < u)

let selects test tuples =
  try Array.exists test tuples with Not_found | Invalid_argument _ -> true

type verdict = Affected | Kept | Row_test of bool

let verdict ~touched ~rows (m : Cache.meta) =
  if List.exists (fun j -> j >= 0 && List.mem j m.pcs) touched then Affected
  else if m.missing_only then Kept
  else
    match rows with
    | None -> Kept
    | Some (schema, tuples) ->
        let c = compile schema m.where_ in
        let skip =
          match (hulls schema tuples, c.ranges) with
          | Some h, Some atoms ->
              Array.exists (fun (i, iv) -> misses iv ~lo:h.lo.(i) ~hi:h.hi.(i)) atoms
          | _ -> false
        in
        if skip then Kept else Row_test (selects c.test tuples)

let affected ~touched ~rows m =
  match verdict ~touched ~rows m with
  | Affected | Row_test true -> true
  | Kept | Row_test false -> false

let row_tested ~touched ~rows m =
  match verdict ~touched ~rows m with Row_test _ -> true | Affected | Kept -> false
