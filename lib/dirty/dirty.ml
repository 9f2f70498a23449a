module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Q = Pc_query.Query
module Relation = Pc_data.Relation
module Schema = Pc_data.Schema
module Value = Pc_data.Value
module Range = Pc_core.Range

type model = Absolute of I.t | Additive of float | Relative of float

type annotation = { pred : Pc_predicate.Pred.t; attr : string; model : model }

let annotation ?(pred = Pc_predicate.Pred.tt) ~attr model = { pred; attr; model }

type answer = Range of Range.t | Empty | Inconsistent

let model_interval model recorded =
  match model with
  | Absolute iv -> iv
  | Additive delta ->
      if delta < 0. then invalid_arg "Dirty: negative additive delta";
      I.closed (recorded -. delta) (recorded +. delta)
  | Relative r ->
      if r < 0. then invalid_arg "Dirty: negative relative factor";
      let delta = r *. Float.abs recorded in
      I.closed (recorded -. delta) (recorded +. delta)

(* An annotation with its predicate resolved against the schema once,
   for every row of a relation. *)
type resolved = { annotation : annotation; applies : Relation.tuple -> bool }

let resolve schema annotations =
  List.map (fun a -> { annotation = a; applies = Pc_predicate.Pred.compile schema a.pred }) annotations

let interval_of schema resolved row attr =
  match Schema.kind schema attr with
  | Schema.Categorical -> Some (I.full) (* unused; categoricals are trusted *)
  | Schema.Numeric ->
      let recorded = Value.as_num row.(Schema.index schema attr) in
      let applicable =
        List.filter (fun r -> r.annotation.attr = attr && r.applies row) resolved
      in
      if applicable = [] then Some (I.point recorded)
      else
        List.fold_left
          (fun acc r ->
            Option.bind acc (fun iv ->
                I.intersect iv (model_interval r.annotation.model recorded)))
          (Some I.full) applicable

let value_interval schema annotations row attr =
  interval_of schema (resolve schema annotations) row attr

(* Three-valued predicate matching over interval-valued rows. *)
type match3 = Must | May | No

exception Contradiction

(* A query atom resolved once: categorical attributes are trusted and
   tested exactly; a numeric range is matched against the row's
   possible values. *)
type test = Exact of (Relation.tuple -> bool) | Within of string * I.t

let tests schema pred =
  List.map
    (function
      | Atom.Num_range (attr, range) -> Within (attr, range)
      | atom -> Exact (Atom.compile schema atom))
    pred

let atom_match3 schema resolved row = function
  | Exact test -> if test row then Must else No
  | Within (attr, range) -> (
      match interval_of schema resolved row attr with
      | None -> raise Contradiction
      | Some iv ->
          if I.subset iv range then Must
          else if I.overlaps iv range then May
          else No)

let row_match3 schema resolved row tests =
  List.fold_left
    (fun acc test ->
      match (acc, atom_match3 schema resolved row test) with
      | No, _ | _, No -> No
      | May, _ | _, May -> May
      | Must, Must -> Must)
    Must tests

(* The agg-attribute values a row can contribute *when it is included*:
   its uncertainty interval clipped by the query's own constraints on the
   aggregated attribute (an included row's chosen value must satisfy
   them). Non-empty for Must/May rows by construction. *)
let contribution_interval schema resolved (query : Q.t) row attr =
  match interval_of schema resolved row attr with
  | None -> raise Contradiction
  | Some iv ->
      List.fold_left
        (fun acc atom ->
          match atom with
          | Atom.Num_range (a, range) when a = attr ->
              Option.bind acc (fun iv -> I.intersect iv range)
          | Atom.Num_range _ | Atom.Cat_eq _ | Atom.Cat_neq _ | Atom.Cat_in _
          | Atom.Cat_not_in _ ->
              acc)
        (Some iv) query.Q.where_

type contrib = { status : match3; lo : float; hi : float }

(* Merge multiple numeric atoms on one attribute into a single range so
   that jointly-unsatisfiable pairs (t <= 5 AND t >= 7) classify rows as
   No instead of May. *)
let normalize_pred pred =
  match Pc_predicate.Box.of_pred pred with
  | None -> None
  | Some box ->
      let cat_atoms =
        List.filter
          (fun atom -> match atom with Atom.Num_range _ -> false | _ -> true)
          pred
      in
      let num_attrs =
        List.filter_map
          (fun atom ->
            match atom with Atom.Num_range (a, _) -> Some a | _ -> None)
          pred
        |> List.sort_uniq String.compare
      in
      Some
        (cat_atoms
        @ List.map
            (fun a -> Atom.Num_range (a, Pc_predicate.Box.num_interval box a))
            num_attrs)

let classify rel annotations (query : Q.t) =
  let schema = Relation.schema rel in
  match normalize_pred query.Q.where_ with
  | None -> [] (* unsatisfiable predicate selects nothing in any repair *)
  | Some where_ ->
      let query = { query with Q.where_ } in
      let agg_attr = Q.agg_attr query in
      let resolved = resolve schema annotations and tests = tests schema where_ in
      Relation.fold
        (fun acc row ->
          match row_match3 schema resolved row tests with
          | No -> acc
          | (Must | May) as status -> (
              match agg_attr with
              | None -> { status; lo = 1.; hi = 1. } :: acc
              | Some attr -> (
                  match contribution_interval schema resolved query row attr with
                  | Some iv ->
                      { status; lo = I.lo_float iv; hi = I.hi_float iv } :: acc
                  | None ->
                      (* no valid aggregated value exists for this row
                         inside the query region: it cannot be part of any
                         repair's selection *)
                      acc)))
        [] rel

let musts_and_mays contribs =
  ( List.filter (fun c -> c.status = Must) contribs,
    List.filter (fun c -> c.status = May) contribs )

let count_range contribs =
  let musts, mays = musts_and_mays contribs in
  let m = float_of_int (List.length musts) in
  Range
    (Range.make ~lo_exact:true ~hi_exact:true m
       (m +. float_of_int (List.length mays)))

let sum_range contribs =
  let musts, mays = musts_and_mays contribs in
  let lo =
    List.fold_left (fun acc c -> acc +. c.lo) 0. musts
    +. List.fold_left (fun acc c -> acc +. Float.min 0. c.lo) 0. mays
  and hi =
    List.fold_left (fun acc c -> acc +. c.hi) 0. musts
    +. List.fold_left (fun acc c -> acc +. Float.max 0. c.hi) 0. mays
  in
  Range (Range.make ~lo_exact:true ~hi_exact:true lo hi)

let extremal_range contribs ~is_max =
  match contribs with
  | [] -> Empty
  | _ ->
      let musts, _ = musts_and_mays contribs in
      let all_lo = List.map (fun c -> c.lo) contribs in
      let all_hi = List.map (fun c -> c.hi) contribs in
      if is_max then begin
        (* max possible MAX: the best contributor at its top.
           min possible MAX: musts pinned low, mays excluded; when no
           must exists the adversary keeps a single lowest may-row. *)
        let hi = Pc_util.Stat.maximum (Array.of_list all_hi) in
        let lo =
          match musts with
          | _ :: _ ->
              Pc_util.Stat.maximum
                (Array.of_list (List.map (fun c -> c.lo) musts))
          | [] -> Pc_util.Stat.minimum (Array.of_list all_lo)
        in
        Range (Range.make ~lo_exact:true ~hi_exact:true (Float.min lo hi) hi)
      end
      else begin
        let lo = Pc_util.Stat.minimum (Array.of_list all_lo) in
        let hi =
          match musts with
          | _ :: _ ->
              Pc_util.Stat.minimum
                (Array.of_list (List.map (fun c -> c.hi) musts))
          | [] -> Pc_util.Stat.maximum (Array.of_list all_hi)
        in
        Range (Range.make ~lo_exact:true ~hi_exact:true lo (Float.max lo hi))
      end

(* Greedy optimal-average: start from the forced rows at their extreme
   values and admit optional rows in best-first order while they improve
   the running average (prefix optimality of sorted selection). *)
let best_average ~forced ~optional ~maximize =
  let cmp a b = if maximize then Float.compare b a else Float.compare a b in
  let optional = List.sort cmp optional in
  let improves avg v = if maximize then v > avg else v < avg in
  match (forced, optional) with
  | [], [] -> None
  | [], best :: rest ->
      let rec go sum count = function
        | v :: rest when improves (sum /. count) v ->
            go (sum +. v) (count +. 1.) rest
        | _ -> sum /. count
      in
      Some (go best 1. rest)
  | _ :: _, _ ->
      let sum = List.fold_left ( +. ) 0. forced in
      let count = float_of_int (List.length forced) in
      let rec go sum count = function
        | v :: rest when improves (sum /. count) v ->
            go (sum +. v) (count +. 1.) rest
        | _ -> sum /. count
      in
      Some (go sum count optional)

let avg_range contribs =
  match contribs with
  | [] -> Empty
  | _ ->
      let musts, mays = musts_and_mays contribs in
      let hi =
        best_average
          ~forced:(List.map (fun c -> c.hi) musts)
          ~optional:(List.map (fun c -> c.hi) mays)
          ~maximize:true
      and lo =
        best_average
          ~forced:(List.map (fun c -> c.lo) musts)
          ~optional:(List.map (fun c -> c.lo) mays)
          ~maximize:false
      in
      (match (lo, hi) with
      | Some lo, Some hi ->
          Range (Range.make ~lo_exact:true ~hi_exact:true (Float.min lo hi) (Float.max lo hi))
      | None, _ | _, None -> Empty)

let bound rel annotations (query : Q.t) =
  match classify rel annotations query with
  | exception Contradiction -> Inconsistent
  | contribs -> (
      match query.Q.agg with
      | Q.Count -> count_range contribs
      | Q.Sum _ -> sum_range contribs
      | Q.Avg _ -> avg_range contribs
      | Q.Max _ -> extremal_range contribs ~is_max:true
      | Q.Min _ -> extremal_range contribs ~is_max:false)
