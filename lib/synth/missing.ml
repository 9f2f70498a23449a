module Relation = Pc_data.Relation

type split = { observed : Relation.t; missing : Relation.t }

let check_fraction f =
  if f < 0. || f > 1. then invalid_arg "Missing: fraction outside [0, 1]"

let random rng rel ~fraction =
  check_fraction fraction;
  let n = Relation.cardinality rel in
  let k = int_of_float (Float.round (fraction *. float_of_int n)) in
  let idx = Array.init n Fun.id in
  Pc_util.Rng.shuffle rng idx;
  let missing_set = Hashtbl.create k in
  Array.iteri (fun pos i -> if pos < k then Hashtbl.add missing_set i ()) idx;
  let pos = ref (-1) in
  let missing, observed =
    Relation.partition
      (fun _ ->
        incr pos;
        Hashtbl.mem missing_set !pos)
      rel
  in
  { observed; missing }

let top_values rel ~attr ~fraction =
  check_fraction fraction;
  let n = Relation.cardinality rel in
  let k = int_of_float (Float.round (fraction *. float_of_int n)) in
  if k = 0 then { observed = rel; missing = Relation.take 0 rel }
  else begin
    let xs = Relation.column rel attr in
    let sorted = Array.copy xs in
    Array.sort (fun a b -> Float.compare b a) sorted;
    let threshold = sorted.(k - 1) in
    (* count ties at the threshold so exactly k rows go missing *)
    let above = Array.fold_left (fun acc x -> if x > threshold then acc + 1 else acc) 0 xs in
    let ties_needed = ref (k - above) in
    let idx = Pc_data.Schema.index (Relation.schema rel) attr in
    let missing, observed =
      Relation.partition
        (fun row ->
          let v = Pc_data.Value.as_num row.(idx) in
          if v > threshold then true
          else if v = threshold && !ties_needed > 0 then begin
            decr ties_needed;
            true
          end
          else false)
        rel
    in
    { observed; missing }
  end

let by_predicate rel pred =
  let missing, observed =
    Relation.partition (Pc_predicate.Pred.compile (Relation.schema rel) pred) rel
  in
  { observed; missing }
