module Q = Pc_query.Query
module Bounds = Pc_core.Bounds
module Pc_set = Pc_core.Pc_set
module Pc = Pc_core.Pc
module B = Pc_budget.Budget
module Counter = Pc_obs.Registry.Counter
module Trace = Pc_obs.Trace

let c_bounds = Counter.make "join.bounds"
let c_cover_fallbacks = Counter.make "join.cover_fallbacks"

type table = {
  name : string;
  join_attrs : string list;
  pcs : Pc_set.t;
  where_ : Pc_predicate.Pred.t;
      (** per-table selection pushed below the join; [Pred.tt] when the
          query has no predicate on this table *)
}

type bounded = { value : float; provenance : Bounds.provenance }

let table ?(where_ = Pc_predicate.Pred.tt) ~name ~join_attrs pcs =
  { name; join_attrs; pcs; where_ }

let hi_of = function
  | Bounds.Range r -> r.Pc_core.Range.hi
  | Bounds.Empty -> 0.
  | Bounds.Infeasible -> 0.

let count_upper_b ?opts ?budget t =
  let o = Bounds.bound_budgeted ?opts ?budget t.pcs (Q.count ~where_:t.where_ ()) in
  { value = hi_of o.Bounds.answer; provenance = o.Bounds.stats.Bounds.provenance }

let sum_upper_b ?opts ?budget t ~attr =
  let o = Bounds.bound_budgeted ?opts ?budget t.pcs (Q.sum ~where_:t.where_ attr) in
  {
    value = Float.max 0. (hi_of o.Bounds.answer);
    provenance = o.Bounds.stats.Bounds.provenance;
  }

let count_upper ?opts ?budget t = (count_upper_b ?opts ?budget t).value

let hypergraph_of tables =
  Hypergraph.make
    (List.map
       (fun t -> { Hypergraph.name = t.name; attrs = t.join_attrs })
       tables)

let worst_of bs =
  List.fold_left
    (fun acc b -> Bounds.worst_provenance acc b.provenance)
    Bounds.Exact bs

(* Combine per-table weights through the edge-cover LP — cover weights
   live in [0, 1] box bounds and a [fixed] table is a pinned [v, v] box,
   so the LP has only the covering rows (see Edge_cover). A starved or
   failed LP falls back to the plain product (a cover of all-ones is
   always valid, just looser). The shared [budget] caps the whole join
   bound: per-table ladders plus the cover LP draw from one pool. *)
let combine_run ?budget ?fixed ~weights tables =
  if List.exists (fun (_, c) -> c <= 0.) weights then 0.
  else begin
    let hg = hypergraph_of tables in
    match Edge_cover.solve ?budget ?fixed ~weights hg with
    | Some cover -> Edge_cover.product_bound ~weights cover
    | None ->
        Counter.incr c_cover_fallbacks;
        List.fold_left (fun acc (_, c) -> acc *. c) 1. weights
  end

let combine ?budget ?fixed ~weights tables =
  (* the branch keeps the disabled path closure-free *)
  if Trace.enabled () then
    Trace.with_span ~name:"join.cover" (fun () ->
        combine_run ?budget ?fixed ~weights tables)
  else combine_run ?budget ?fixed ~weights tables

(* Per-table sub-span, so a trace shows each table's ladder work. *)
let table_span t f =
  if Trace.enabled () then
    Trace.with_span ~name:"join.table" ~attrs:[ ("table", t.name) ] f
  else f ()

let count_bound_budgeted_run ?opts ?budget tables =
  Counter.incr c_bounds;
  let per =
    List.map
      (fun t -> table_span t (fun () -> (t.name, count_upper_b ?opts ?budget t)))
      tables
  in
  let weights = List.map (fun (n, b) -> (n, b.value)) per in
  {
    value = combine ?budget ~weights tables;
    provenance = worst_of (List.map snd per);
  }

let count_bound_budgeted ?opts ?budget tables =
  if Trace.enabled () then
    Trace.with_span ~name:"join.bound" ~attrs:[ ("kind", "count") ] (fun () ->
        count_bound_budgeted_run ?opts ?budget tables)
  else count_bound_budgeted_run ?opts ?budget tables

let count_bound ?opts ?budget tables =
  (count_bound_budgeted ?opts ?budget tables).value

let sum_bound_budgeted_run ?opts ?budget tables ~agg:(agg_table, attr) =
  if not (List.exists (fun t -> t.name = agg_table) tables) then
    invalid_arg "Join_bound.sum_bound: unknown aggregate table";
  Counter.incr c_bounds;
  let per =
    List.map
      (fun t ->
        table_span t (fun () ->
            if t.name = agg_table then (t.name, sum_upper_b ?opts ?budget t ~attr)
            else (t.name, count_upper_b ?opts ?budget t)))
      tables
  in
  let weights = List.map (fun (n, b) -> (n, b.value)) per in
  {
    value = combine ?budget ~fixed:[ (agg_table, 1.) ] ~weights tables;
    provenance = worst_of (List.map snd per);
  }

let sum_bound_budgeted ?opts ?budget tables ~agg =
  if Trace.enabled () then
    Trace.with_span ~name:"join.bound" ~attrs:[ ("kind", "sum") ] (fun () ->
        sum_bound_budgeted_run ?opts ?budget tables ~agg)
  else sum_bound_budgeted_run ?opts ?budget tables ~agg

let sum_bound ?opts ?budget tables ~agg =
  (sum_bound_budgeted ?opts ?budget tables ~agg).value

let naive_count_bound ?opts ?budget tables =
  List.fold_left (fun acc t -> acc *. count_upper ?opts ?budget t) 1. tables

let product_pc_set a b =
  let shared =
    List.filter (fun x -> List.mem x (Pc_set.attrs b)) (Pc_set.attrs a)
  in
  if shared <> [] then
    invalid_arg
      (Printf.sprintf "Join_bound.product_pc_set: shared attributes (%s)"
         (String.concat ", " shared));
  let pairs =
    List.concat_map
      (fun (pa : Pc.t) ->
        List.map
          (fun (pb : Pc.t) ->
            Pc.make
              ~name:(pa.Pc.name ^ "*" ^ pb.Pc.name)
              ~pred:(pa.Pc.pred @ pb.Pc.pred)
              ~values:(pa.Pc.values @ pb.Pc.values)
              ~freq:(pa.Pc.freq_lo * pb.Pc.freq_lo, pa.Pc.freq_hi * pb.Pc.freq_hi)
              ())
          (Pc_set.pcs b))
      (Pc_set.pcs a)
  in
  Pc_set.make pairs
