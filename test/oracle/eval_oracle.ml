module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Schema = Pc_data.Schema
module Relation = Pc_data.Relation
module Value = Pc_data.Value
module Q = Pc_query.Query

let atom_eval schema t row =
  let get name = row.(Schema.index schema name) in
  match t with
  | Atom.Num_range (a, iv) -> I.contains iv (Value.as_num (get a))
  | Atom.Cat_eq (a, s) -> String.equal (Value.as_str (get a)) s
  | Atom.Cat_neq (a, s) -> not (String.equal (Value.as_str (get a)) s)
  | Atom.Cat_in (a, ss) ->
      let v = Value.as_str (get a) in
      List.exists (String.equal v) ss
  | Atom.Cat_not_in (a, ss) ->
      let v = Value.as_str (get a) in
      not (List.exists (String.equal v) ss)

let pred_eval schema t row = List.for_all (fun a -> atom_eval schema a row) t

(* [Stat]'s folds and [Relation.column] as they were. *)
let sum xs = Array.fold_left ( +. ) 0. xs
let minimum xs = Array.fold_left Float.min xs.(0) xs
let maximum xs = Array.fold_left Float.max xs.(0) xs

let column schema rows name =
  let i = Schema.index schema name in
  Array.map (fun row -> Value.as_num row.(i)) rows

let query_eval rel (q : Q.t) =
  let schema = Relation.schema rel in
  let sel =
    Array.of_list
      (List.filter (pred_eval schema q.Q.where_) (Array.to_list (Relation.tuples rel)))
  in
  let n = Array.length sel in
  let column = column schema sel in
  match q.Q.agg with
  | Q.Count -> Some (float_of_int n)
  | Q.Sum a -> Some (sum (column a))
  | Q.Avg a -> if n = 0 then None else Some (sum (column a) /. float_of_int n)
  | Q.Min a -> if n = 0 then None else Some (minimum (column a))
  | Q.Max a -> if n = 0 then None else Some (maximum (column a))

let min_max rel name =
  if Relation.is_empty rel then None
  else begin
    let xs = column (Relation.schema rel) (Relation.tuples rel) name in
    Some (minimum xs, maximum xs)
  end

let rand_pcs ?value_attrs ?width_frac rng rel ~attrs ~n () =
  if Relation.is_empty rel then []
  else begin
    let schema = Relation.schema rel in
    List.iter
      (fun a ->
        if Schema.kind schema a <> Schema.Numeric then
          invalid_arg "Generate.rand_pcs: only numeric partition attributes")
      attrs;
    let value_attrs = Option.value value_attrs ~default:(Schema.numeric_names schema) in
    let ranges = List.map (fun a -> (a, Option.get (min_max rel a))) attrs in
    let random_pc i =
      let atoms =
        List.map
          (fun (a, (lo, hi)) ->
            match width_frac with
            | None ->
                let x = Pc_util.Rng.uniform rng ~lo ~hi
                and y = Pc_util.Rng.uniform rng ~lo ~hi in
                Atom.between a (Float.min x y) (Float.max x y)
            | Some (wlo, whi) ->
                let w = (hi -. lo) *. Pc_util.Rng.uniform rng ~lo:wlo ~hi:whi in
                let start = Pc_util.Rng.uniform rng ~lo ~hi:(Float.max lo (hi -. w)) in
                Atom.between a start (start +. w))
          ranges
      in
      let cols = Array.of_list (List.map (Schema.index schema) value_attrs) in
      let lo = Array.make (Array.length cols) infinity in
      let hi = Array.make (Array.length cols) neg_infinity in
      let count =
        Relation.fold
          (fun count row ->
            if List.for_all (fun atom -> atom_eval schema atom row) atoms then begin
              Array.iteri
                (fun k i ->
                  let x = Value.as_num row.(i) in
                  lo.(k) <- Float.min lo.(k) x;
                  hi.(k) <- Float.max hi.(k) x)
                cols;
              count + 1
            end
            else count)
          0 rel
      in
      let values =
        if count = 0 then [] else List.mapi (fun k a -> (a, I.closed lo.(k) hi.(k))) value_attrs
      in
      Pc_core.Pc.make ~name:(Printf.sprintf "rand%d" i) ~pred:atoms ~values ~freq:(0, count) ()
    in
    let catch_all =
      let values =
        List.map
          (fun a ->
            let lo, hi = Option.get (min_max rel a) in
            (a, I.closed lo hi))
          value_attrs
      in
      Pc_core.Pc.make ~name:"catch_all" ~pred:Pc_predicate.Pred.tt ~values
        ~freq:(0, Relation.cardinality rel) ()
    in
    catch_all :: List.init (max 0 (n - 1)) random_pc
  end
