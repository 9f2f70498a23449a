module Schema = Pc_data.Schema
module Relation = Pc_data.Relation

type t = { schema : Schema.t; parts : Partition.t list (* insertion order *) }

let create schema = { schema; parts = [] }

let find t id = List.find_opt (fun (p : Partition.t) -> p.Partition.id = id) t.parts

let add_partition t ~id rel =
  if not (Schema.equal (Relation.schema rel) t.schema) then
    invalid_arg "Store.add_partition: schema mismatch";
  if find t id <> None then
    invalid_arg (Printf.sprintf "Store.add_partition: duplicate id %s" id);
  { t with parts = t.parts @ [ Partition.summarize ~id rel ] }

let update t ~id f =
  match find t id with
  | None -> raise Not_found
  | Some _ ->
      {
        t with
        parts =
          List.map
            (fun (p : Partition.t) -> if p.Partition.id = id then f p else p)
            t.parts;
      }

let mark_missing t ~id = update t ~id Partition.mark_missing

let restore t ~id rel =
  update t ~id (fun p ->
      let replacement = Partition.summarize ~id rel in
      (* the arriving rows must be consistent with the retained zone map *)
      if not (Pc_core.Pc.holds rel (Partition.to_pc p)) then
        invalid_arg
          (Printf.sprintf
             "Store.restore: rows for %s violate the retained zone map" id);
      replacement)

let schema t = t.schema
let partitions t = t.parts

let loaded_rows t =
  List.fold_left
    (fun acc (p : Partition.t) ->
      match p.Partition.rows with
      | Some rel -> Relation.union acc rel
      | None -> acc)
    (Relation.create t.schema []) t.parts

let missing_parts t =
  List.filter (fun (p : Partition.t) -> p.Partition.status = Partition.Missing) t.parts

let missing_count t =
  List.fold_left
    (fun acc (p : Partition.t) -> acc + p.Partition.summary.Partition.count)
    0 (missing_parts t)

(* A PC counts every lost row inside its predicate, and rows lost from
   another partition whose zone-map box meets this one's can lie inside
   it too. So each missing partition's constraint keeps its own count as
   the lower bound, and its cap and value ranges grow by those
   overlapping partitions: [ku_i = count_i + Σ count_j] and [ν_i] the
   hull of their ranges. The PC set is the unit of soundness, not one
   zone map. *)
let zone_pc parts (p : Partition.t) =
  let box (q : Partition.t) = Partition.bounding_pred q in
  let overlapping =
    List.filter
      (fun (q : Partition.t) ->
        q.Partition.id <> p.Partition.id
        && Option.is_some (Pc_predicate.Box.of_pred (box p @ box q)))
      parts
  in
  let pc = Partition.to_pc p in
  let widen (a, iv) =
    ( a,
      List.fold_left
        (fun iv (q : Partition.t) ->
          Pc_interval.Interval.hull iv (List.assoc a q.Partition.summary.Partition.ranges))
        iv overlapping )
  in
  let count (q : Partition.t) = q.Partition.summary.Partition.count in
  Pc_core.Pc.make ~name:pc.Pc_core.Pc.name ~pred:pc.Pc_core.Pc.pred
    ~values:(List.map widen pc.Pc_core.Pc.values)
    ~freq:(count p, List.fold_left (fun n q -> n + count q) (count p) overlapping)
    ()

(* Under closure a predicate also *permits* rows in its region, so a
   user constraint conjoined as-is would extend where lost rows may live.
   Restricting each extra constraint to every missing partition's zone-map
   box keeps it a pure restriction. The frequency cap then applies per
   partition (conservative) and frequency lower bounds cannot be split
   soundly, so they are dropped — both can only loosen, never invalidate. *)
let missing_pcs ?(extra = []) t =
  let parts = missing_parts t in
  let zone_pcs = List.map (zone_pc parts) parts in
  let restricted =
    List.concat_map
      (fun (e : Pc_core.Pc.t) ->
        List.map
          (fun (p : Partition.t) ->
            Pc_core.Pc.make
              ~name:(e.Pc_core.Pc.name ^ "@" ^ p.Partition.id)
              ~pred:(e.Pc_core.Pc.pred @ Partition.bounding_pred p)
              ~values:e.Pc_core.Pc.values
              ~freq:(0, e.Pc_core.Pc.freq_hi)
              ())
          parts)
      extra
  in
  Pc_core.Pc_set.make (zone_pcs @ restricted)

let query ?opts ?extra t q =
  let certain = loaded_rows t in
  match missing_parts t with
  | [] -> (
      (* fully loaded: the exact answer as a point range *)
      match Pc_query.Query.eval certain q with
      | Some v -> Pc_core.Bounds.Range (Pc_core.Range.point v)
      | None -> Pc_core.Bounds.Empty)
  | _ -> Pc_core.Bounds.bound_with_certain ?opts (missing_pcs ?extra t) ~certain q

let summaries_to_dsl t =
  String.concat "\n"
    (List.map (fun p -> Pc_parse.Pc_parser.to_dsl (Partition.to_pc p)) t.parts)
  ^ "\n"

let pp ppf t =
  Format.fprintf ppf "@[<v>store %a, %d partitions (%d missing)@," Schema.pp
    t.schema (List.length t.parts)
    (List.length (missing_parts t));
  List.iter (fun p -> Format.fprintf ppf "  %a@," Partition.pp p) t.parts;
  Format.fprintf ppf "@]"
