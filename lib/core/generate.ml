module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Schema = Pc_data.Schema
module Relation = Pc_data.Relation
module Value = Pc_data.Value

let pearson xs ys =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let mx = Pc_util.Stat.mean xs and my = Pc_util.Stat.mean ys in
    let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0. || !syy = 0. then 0. else !sxy /. sqrt (!sxx *. !syy)
  end

(* Fraction of the aggregate's variance explained by the categorical
   grouping (eta-squared). *)
let r_squared_grouped rel ~agg ~by =
  let total = Relation.column rel agg in
  if Array.length total < 2 then 0.
  else begin
    let grand_mean = Pc_util.Stat.mean total in
    let ss_total =
      Array.fold_left (fun acc x -> acc +. ((x -. grand_mean) ** 2.)) 0. total
    in
    if ss_total = 0. then 0.
    else begin
      let ss_between =
        Relation.group_by rel by
        |> List.fold_left
             (fun acc (_, group) ->
               let xs = Relation.column group agg in
               let m = Pc_util.Stat.mean xs in
               acc
               +. (float_of_int (Array.length xs) *. ((m -. grand_mean) ** 2.)))
             0.
      in
      ss_between /. ss_total
    end
  end

let correlated_attrs rel ~agg ~candidates ~k =
  let schema = Relation.schema rel in
  let scored =
    List.filter_map
      (fun attr ->
        if attr = agg || not (Schema.mem schema attr) then None
        else begin
          let score =
            match Schema.kind schema attr with
            | Schema.Numeric ->
                Float.abs (pearson (Relation.column rel attr) (Relation.column rel agg))
            | Schema.Categorical -> r_squared_grouped rel ~agg ~by:attr
          in
          Some (attr, score)
        end)
      candidates
  in
  List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) scored
  |> List.filteri (fun i _ -> i < k)
  |> List.map fst

(* ------------------------------------------------------------------ *)
(* Grid partitioning shared by Corr-PC and the equi-width histogram    *)
(* ------------------------------------------------------------------ *)

type axis =
  | Num_axis of string * float array  (** edges, length = buckets + 1 *)
  | Cat_axis of string * string array

let axis_size = function
  | Num_axis (_, edges) -> Array.length edges - 1
  | Cat_axis (_, vs) -> Array.length vs

(* Index of the bucket holding [x]: the last bucket is closed above. *)
let num_bucket edges x =
  let b = Array.length edges - 1 in
  let rec search lo hi =
    (* invariant: edges.(lo) <= x, searching the greatest i with
       edges.(i) <= x *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi + 1) / 2 in
      if edges.(mid) <= x then search mid hi else search lo (mid - 1)
    end
  in
  if x < edges.(0) then 0
  else begin
    let i = search 0 (b - 1) in
    min i (b - 1)
  end

let axis_bucket axis (v : Value.t) =
  match (axis, v) with
  | Num_axis (_, edges), Value.Num x -> num_bucket edges x
  | Cat_axis (_, vs), Value.Str s ->
      let rec find i = if vs.(i) = s then i else find (i + 1) in
      find 0
  | Num_axis _, Value.Str _ | Cat_axis _, Value.Num _ ->
      invalid_arg "Generate: attribute kind mismatch"

let axis_atom axis i =
  match axis with
  | Cat_axis (attr, vs) -> Atom.cat_eq attr vs.(i)
  | Num_axis (attr, edges) ->
      let b = Array.length edges - 1 in
      let lo = edges.(i) and hi = edges.(i + 1) in
      let hi_ep = if i = b - 1 then I.Closed hi else I.Open hi in
      Atom.Num_range (attr, I.make_exn (I.Closed lo) hi_ep)

let quantile_edges xs buckets =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let raw =
    Array.init (buckets + 1) (fun i ->
        if i = buckets then sorted.(n - 1)
        else sorted.(i * n / buckets))
  in
  (* collapse duplicate edges caused by repeated values *)
  let edges = ref [ raw.(0) ] in
  Array.iter (fun e -> if e > List.hd !edges then edges := e :: !edges) raw;
  let edges = Array.of_list (List.rev !edges) in
  if Array.length edges < 2 then [| raw.(0); raw.(0) +. 1e-9 |] else edges

let uniform_edges xs buckets =
  let lo = Pc_util.Stat.minimum xs and hi = Pc_util.Stat.maximum xs in
  if lo = hi then [| lo; hi +. 1e-9 |]
  else
    Array.init (buckets + 1) (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int buckets))

type bucket_acc = {
  mutable count : int;
  mins : float array;
  maxs : float array;
}

let grid_pcs rel ~axes ~value_attrs ~freq_of_count =
  let d = List.length axes in
  if d = 0 then invalid_arg "Generate: no partition axes";
  let axes = Array.of_list axes in
  let sizes = Array.map axis_size axes in
  let total_buckets = Array.fold_left ( * ) 1 sizes in
  let schema = Relation.schema rel in
  let attr_idx =
    Array.map
      (fun axis ->
        let name =
          match axis with Num_axis (a, _) | Cat_axis (a, _) -> a
        in
        Schema.index schema name)
      axes
  in
  let value_idx = List.map (fun a -> (a, Schema.index schema a)) value_attrs in
  let nv = List.length value_idx in
  let buckets : (int, bucket_acc) Hashtbl.t = Hashtbl.create 256 in
  ignore total_buckets;
  Relation.iter
    (fun row ->
      let key = ref 0 in
      Array.iteri
        (fun ai axis ->
          let b = axis_bucket axis row.(attr_idx.(ai)) in
          key := (!key * sizes.(ai)) + b)
        axes;
      let acc =
        match Hashtbl.find_opt buckets !key with
        | Some acc -> acc
        | None ->
            let acc =
              {
                count = 0;
                mins = Array.make nv infinity;
                maxs = Array.make nv neg_infinity;
              }
            in
            Hashtbl.add buckets !key acc;
            acc
      in
      acc.count <- acc.count + 1;
      List.iteri
        (fun vi (_, idx) ->
          let x = Value.as_num row.(idx) in
          if x < acc.mins.(vi) then acc.mins.(vi) <- x;
          if x > acc.maxs.(vi) then acc.maxs.(vi) <- x)
        value_idx)
    rel;
  (* decode a flat key back into per-axis bucket indices *)
  let decode key =
    let ids = Array.make (Array.length axes) 0 in
    let k = ref key in
    for ai = Array.length axes - 1 downto 0 do
      ids.(ai) <- !k mod sizes.(ai);
      k := !k / sizes.(ai)
    done;
    ids
  in
  Hashtbl.fold
    (fun key acc pcs ->
      let ids = decode key in
      let atoms =
        Array.to_list (Array.mapi (fun ai axis -> axis_atom axis ids.(ai)) axes)
      in
      let values =
        List.mapi
          (fun vi (attr, _) -> (attr, I.closed acc.mins.(vi) acc.maxs.(vi)))
          value_idx
      in
      Pc.make ~pred:atoms ~values ~freq:(freq_of_count acc.count) () :: pcs)
    buckets []
  |> List.sort (fun (a : Pc.t) b -> String.compare a.Pc.name b.Pc.name)

let default_value_attrs rel =
  Schema.numeric_names (Relation.schema rel)

let build_axes rel ~attrs ~numeric_buckets ~edges_fn =
  let schema = Relation.schema rel in
  List.map
    (fun attr ->
      match Schema.kind schema attr with
      | Schema.Numeric -> Num_axis (attr, edges_fn (Relation.column rel attr) numeric_buckets)
      | Schema.Categorical ->
          Cat_axis (attr, Array.of_list (Relation.distinct_strings rel attr)))
    attrs

let per_axis_buckets rel ~attrs ~n =
  let schema = Relation.schema rel in
  let numeric =
    List.length (List.filter (fun a -> Schema.kind schema a = Schema.Numeric) attrs)
  in
  if numeric = 0 then 1
  else begin
    let cat_product =
      List.fold_left
        (fun acc a ->
          match Schema.kind schema a with
          | Schema.Categorical -> acc * max 1 (List.length (Relation.distinct_strings rel a))
          | Schema.Numeric -> acc)
        1 attrs
    in
    let remaining = max 1 (n / max 1 cat_product) in
    max 1
      (int_of_float
         (Float.round (float_of_int remaining ** (1. /. float_of_int numeric))))
  end

let corr_partition ?value_attrs ?(exact_counts = false) rel ~attrs ~n () =
  if Relation.is_empty rel then []
  else begin
    let value_attrs = Option.value value_attrs ~default:(default_value_attrs rel) in
    let buckets = per_axis_buckets rel ~attrs ~n in
    let axes = build_axes rel ~attrs ~numeric_buckets:buckets ~edges_fn:quantile_edges in
    let freq_of_count c = if exact_counts then (c, c) else (0, c) in
    grid_pcs rel ~axes ~value_attrs ~freq_of_count
  end

let equiwidth_grid ?value_attrs rel ~attrs ~bins () =
  if Relation.is_empty rel then []
  else begin
    let value_attrs = Option.value value_attrs ~default:(default_value_attrs rel) in
    let axes = build_axes rel ~attrs ~numeric_buckets:bins ~edges_fn:uniform_edges in
    grid_pcs rel ~axes ~value_attrs ~freq_of_count:(fun c -> (c, c))
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
    let value_attrs = Option.value value_attrs ~default:(default_value_attrs rel) in
    let ranges =
      List.map (fun a -> (a, Option.get (Relation.min_max rel a))) attrs
    in
    let value_cols = List.map (fun a -> (a, Relation.numbers rel a)) value_attrs in
    let hits = Array.make (Relation.cardinality rel) 0 in
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
                let start =
                  Pc_util.Rng.uniform rng ~lo ~hi:(Float.max lo (hi -. w))
                in
                Atom.between a start (start +. w))
          ranges
      in
      (* The box tested on the cached columns, collecting the matching
         rows; then per value attribute the [Float.min] and
         [Float.max] folds over them in row order, which
         [Relation.min_max] of the matching rows would give. *)
      let count = Pc_predicate.Pred.scanner rel atoms 0 hits in
      let fold xs =
        I.closed
          (Pc_util.Stat.min_rows infinity xs hits count)
          (Pc_util.Stat.max_rows neg_infinity xs hits count)
      in
      let values =
        if count = 0 then [] else List.map (fun (a, xs) -> (a, fold xs)) value_cols
      in
      Pc.make ~name:(Printf.sprintf "rand%d" i) ~pred:atoms ~values
        ~freq:(0, count) ()
    in
    let catch_all =
      let values =
        List.map
          (fun a ->
            let lo, hi = Option.get (Relation.min_max rel a) in
            (a, I.closed lo hi))
          value_attrs
      in
      Pc.make ~name:"catch_all" ~pred:Pc_predicate.Pred.tt ~values
        ~freq:(0, Relation.cardinality rel) ()
    in
    catch_all :: List.init (max 0 (n - 1)) random_pc
  end
