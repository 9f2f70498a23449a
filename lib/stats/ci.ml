module Relation = Pc_data.Relation
module Q = Pc_query.Query
module Pred = Pc_predicate.Pred
module Range = Pc_core.Range

type method_ = Parametric | Nonparametric

(* Per-row contribution of a query: for totals (COUNT/SUM) every sampled
   row contributes (0 when the predicate rejects it). *)
let contributions sample (query : Q.t) =
  let schema = Relation.schema sample in
  let matches = Pred.compile schema query.Q.where_ in
  match query.Q.agg with
  | Q.Count ->
      Some (Relation.fold (fun acc row -> (if matches row then 1. else 0.) :: acc) [] sample)
  | Q.Sum a ->
      let idx = Pc_data.Schema.index schema a in
      Some
        (Relation.fold
           (fun acc row ->
             (if matches row then Pc_data.Value.as_num row.(idx) else 0.) :: acc)
           [] sample)
  | Q.Avg _ | Q.Min _ | Q.Max _ -> None

let matching_values sample (query : Q.t) attr =
  let schema = Relation.schema sample in
  let idx = Pc_data.Schema.index schema attr in
  let matches = Pred.compile schema query.Q.where_ in
  Relation.fold
    (fun acc row -> if matches row then Pc_data.Value.as_num row.(idx) :: acc else acc)
    [] sample

let half_width ~method_ ~confidence ys =
  let m = Array.length ys in
  if m = 0 then 0.
  else begin
    match method_ with
    | Parametric ->
        let z = Pc_util.Stat.normal_quantile (1. -. ((1. -. confidence) /. 2.)) in
        z *. Pc_util.Stat.stddev ys /. sqrt (float_of_int m)
    | Nonparametric ->
        let spread = Pc_util.Stat.maximum ys -. Pc_util.Stat.minimum ys in
        let delta = Float.max 1e-12 (1. -. confidence) in
        spread *. sqrt (log (2. /. delta) /. (2. *. float_of_int m))
  end

(* Interval for the mean of the matching subsample (AVG queries). *)
let mean_interval ~method_ ~confidence values =
  match values with
  | [] -> None
  | _ ->
      let ys = Array.of_list values in
      let mean = Pc_util.Stat.mean ys in
      let half = half_width ~method_ ~confidence ys in
      Some (Range.make (mean -. half) (mean +. half))

let total_interval ~method_ ~confidence ~n_total contributions =
  match contributions with
  | [] -> None
  | _ ->
      let ys = Array.of_list contributions in
      let mean = Pc_util.Stat.mean ys in
      let half = half_width ~method_ ~confidence ys in
      let scale = float_of_int n_total in
      Some (Range.make (scale *. (mean -. half)) (scale *. (mean +. half)))

let extreme_interval values ~is_max =
  match values with
  | [] -> None
  | _ ->
      let ys = Array.of_list values in
      let v = if is_max then Pc_util.Stat.maximum ys else Pc_util.Stat.minimum ys in
      (* a sample offers no principled bound beyond its own extremes: pad
         by the observed spread, the honest best effort *)
      let spread = Pc_util.Stat.maximum ys -. Pc_util.Stat.minimum ys in
      let pad = 0.5 *. spread in
      if is_max then Some (Range.make (v -. 1e-12) (v +. pad))
      else Some (Range.make (v -. pad) (v +. 1e-12))

let uniform_estimator ~name ~method_ ~confidence ~sample ~n_total =
  Estimator.make name (fun query ->
      match query.Q.agg with
      | Q.Count | Q.Sum _ ->
          Option.bind (contributions sample query)
            (total_interval ~method_ ~confidence ~n_total)
      | Q.Avg a -> mean_interval ~method_ ~confidence (matching_values sample query a)
      | Q.Max a -> extreme_interval (matching_values sample query a) ~is_max:true
      | Q.Min a -> extreme_interval (matching_values sample query a) ~is_max:false)

let stratified_estimator ~name ~method_ ~confidence ~strata =
  Estimator.make name (fun query ->
      match query.Q.agg with
      | Q.Count | Q.Sum _ ->
          (* combine per-stratum totals; the confidence budget is split
             across strata (union bound) for the nonparametric form *)
          let h = max 1 (List.length strata) in
          let confidence_h =
            match method_ with
            | Parametric -> confidence
            | Nonparametric -> 1. -. ((1. -. confidence) /. float_of_int h)
          in
          let acc =
            List.fold_left
              (fun acc (s : Sample.stratum) ->
                match acc with
                | None -> None
                | Some (lo, hi, any) -> (
                    match contributions s.Sample.rows query with
                    | None -> None
                    | Some [] -> Some (lo, hi, any)
                    | Some cs -> (
                        match
                          total_interval ~method_ ~confidence:confidence_h
                            ~n_total:s.Sample.population cs
                        with
                        | None -> Some (lo, hi, any)
                        | Some r -> Some (lo +. r.Range.lo, hi +. r.Range.hi, true))))
              (Some (0., 0., false))
              strata
          in
          Option.bind acc (fun (lo, hi, any) ->
              if any then Some (Range.make lo hi) else None)
      | Q.Avg a ->
          let values =
            List.concat_map
              (fun (s : Sample.stratum) -> matching_values s.Sample.rows query a)
              strata
          in
          mean_interval ~method_ ~confidence values
      | Q.Max a ->
          let values =
            List.concat_map
              (fun (s : Sample.stratum) -> matching_values s.Sample.rows query a)
              strata
          in
          extreme_interval values ~is_max:true
      | Q.Min a ->
          let values =
            List.concat_map
              (fun (s : Sample.stratum) -> matching_values s.Sample.rows query a)
              strata
          in
          extreme_interval values ~is_max:false)
