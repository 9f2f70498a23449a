module I = Pc_interval.Interval
module Box = Pc_predicate.Box
module Cnf = Pc_predicate.Cnf
module Pc = Pc_core.Pc
module Pc_set = Pc_core.Pc_set

let cnf set qpred active =
  let rec go i active expr =
    if i = Pc_set.size set then expr
    else
      let pred = (Pc_set.get set i).Pc.pred in
      match active with
      | j :: rest when j = i -> go (i + 1) rest (Cnf.conj (Cnf.of_pred pred) expr)
      | _ -> go (i + 1) active (Cnf.conj (Cnf.of_neg_pred pred) expr)
  in
  go 0 active (Cnf.of_pred qpred)

let cell_box set qpred active =
  List.fold_left
    (fun acc j -> Option.bind acc (fun b -> Box.add_pred b (Pc_set.get set j).Pc.pred))
    (Box.add_pred Box.top qpred)
    active

let cell_value_interval ~tighten set qpred active attr =
  let from_values =
    List.fold_left
      (fun acc j ->
        Option.bind acc (fun iv -> I.intersect iv (Pc.value_interval (Pc_set.get set j) attr)))
      (Some I.full) active
  in
  match from_values with
  | None -> None
  | Some iv -> (
      if not tighten then Some iv
      else
        match cell_box set qpred active with
        | None -> None (* cell region itself is empty (early-stop artifact) *)
        | Some b -> I.intersect iv (Box.num_interval b attr))

let cell_inhabitable ~tighten set qpred active =
  let attrs =
    List.concat_map (fun j -> Pc.value_attrs (Pc_set.get set j)) active
    |> List.sort_uniq String.compare
  in
  List.for_all
    (fun a -> Option.is_some (cell_value_interval ~tighten set qpred active a))
    attrs
  &&
  (* guard against admitted-but-unsat cells from Early_stop *)
  match attrs with
  | _ :: _ -> true
  | [] -> (not tighten) || Option.is_some (cell_box set qpred active)
