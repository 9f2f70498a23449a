module I = Pc_interval.Interval
module Pred = Pc_predicate.Pred
module Relation = Pc_data.Relation

type t = {
  name : string;
  pred : Pred.t;
  values : (string * I.t) list;
  freq_lo : int;
  freq_hi : int;
}

let counter = ref 0

let make ?name ~pred ~values ~freq:(freq_lo, freq_hi) () =
  if freq_lo < 0 then invalid_arg "Pc.make: negative frequency lower bound";
  if freq_lo > freq_hi then invalid_arg "Pc.make: kl > ku";
  let attrs = List.map fst values in
  if List.length (List.sort_uniq String.compare attrs) <> List.length attrs then
    invalid_arg "Pc.make: duplicate value-constraint attribute";
  let name =
    match name with
    | Some n -> n
    | None ->
        incr counter;
        Printf.sprintf "pc%d" !counter
  in
  { name; pred; values; freq_lo; freq_hi }

let value_interval t attr =
  let rec find = function
    | [] -> I.full
    | (a, iv) :: rest -> if String.equal a attr then iv else find rest
  in
  find t.values

let value_attrs t = List.map fst t.values

let matching rel t = Relation.filter (Pred.compile (Relation.schema rel) t.pred) rel

let violations rel t =
  let schema = Relation.schema rel in
  let matched = matching rel t in
  let n = Relation.cardinality matched in
  let freq_violation =
    if n < t.freq_lo then
      [
        Printf.sprintf "%s: %d matching rows, below frequency lower bound %d"
          t.name n t.freq_lo;
      ]
    else if n > t.freq_hi then
      [
        Printf.sprintf "%s: %d matching rows, above frequency upper bound %d"
          t.name n t.freq_hi;
      ]
    else []
  in
  let value_violations =
    List.filter_map
      (fun (attr, iv) ->
        match Pc_data.Schema.index_opt schema attr with
        | None -> Some (Printf.sprintf "%s: attribute %s not in schema" t.name attr)
        | Some idx ->
            let bad = ref 0 in
            Relation.iter
              (fun row ->
                let v = Pc_data.Value.as_num row.(idx) in
                if not (I.contains iv v) then incr bad)
              matched;
            if !bad > 0 then
              Some
                (Printf.sprintf "%s: %d rows violate %s in %s" t.name !bad attr
                   (I.to_string iv))
            else None)
      t.values
  in
  freq_violation @ value_violations

let holds rel t = violations rel t = []

let pp ppf t =
  let pp_value ppf (attr, iv) = Format.fprintf ppf "%s in %a" attr I.pp iv in
  Format.fprintf ppf "@[<h>%s: %a => %a, (%d, %d)@]" t.name Pred.pp t.pred
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " AND ") pp_value)
    t.values t.freq_lo t.freq_hi
