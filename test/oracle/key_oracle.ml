(* The cache-key renderers as they stood before the keys were built in
   one buffer pass: [Printf] with [%S] for strings and [%h] for floats.
   Kept as the oracle that [Interval.key], [Pred.canonical_key] and
   [Cache.key] must match byte for byte. *)

module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module Q = Pc_query.Query

let interval_key { I.lo; hi } =
  let ep = function
    | I.Neg_inf -> "-inf"
    | I.Pos_inf -> "+inf"
    | I.Closed x -> Printf.sprintf "c%h" x
    | I.Open x -> Printf.sprintf "o%h" x
  in
  Printf.sprintf "[%s,%s]" (ep lo) (ep hi)

let canonical_key t =
  let strings ss = String.concat ";" (List.map (Printf.sprintf "%S") ss) in
  let atom_key = function
    | Atom.Num_range (a, iv) -> Printf.sprintf "n%S%s" a (interval_key iv)
    | Atom.Cat_eq (a, s) -> Printf.sprintf "e%S%S" a s
    | Atom.Cat_neq (a, s) -> Printf.sprintf "d%S%S" a s
    | Atom.Cat_in (a, ss) -> Printf.sprintf "i%S{%s}" a (strings ss)
    | Atom.Cat_not_in (a, ss) -> Printf.sprintf "x%S{%s}" a (strings ss)
  in
  match Pred.canonical t with
  | [] -> "TRUE"
  | atoms -> String.concat "&" (List.map atom_key atoms)

let cache_key ~digest ~(query : Q.t) ~missing_only ~timeout_ms =
  let agg =
    match query.Q.agg with
    | Q.Count -> "count"
    | Q.Sum a -> Printf.sprintf "sum(%S)" a
    | Q.Avg a -> Printf.sprintf "avg(%S)" a
    | Q.Min a -> Printf.sprintf "min(%S)" a
    | Q.Max a -> Printf.sprintf "max(%S)" a
  in
  Printf.sprintf "%s|%s|%s|m=%b|t=%s" digest agg (canonical_key query.Q.where_)
    missing_only
    (match timeout_ms with None -> "-" | Some ms -> Printf.sprintf "%h" ms)
