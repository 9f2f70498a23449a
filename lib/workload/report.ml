let section title =
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" line title line

let table ~header rows =
  let ncols = List.length header in
  let pad row = row @ List.init (max 0 (ncols - List.length row)) (fun _ -> "") in
  let rows = List.map pad rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    let padded =
      List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths cells
    in
    print_endline ("  " ^ String.concat "  " padded)
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let fnum x =
  if Float.is_nan x then "nan"
  else if x = infinity then "inf"
  else if x = neg_infinity then "-inf"
  else if x <> 0. && (Float.abs x >= 1e6 || Float.abs x < 1e-3) then
    Printf.sprintf "%.3e" x
  else Printf.sprintf "%.4g" x

let fpct x = if Float.is_nan x then "nan" else Printf.sprintf "%.2f%%" x

(* An empty workload has no over-estimation ratios, so its medians are
   [nan]; [Json.to_string] prints a non-finite number as [null]. *)
let json_of_summary (s : Metrics.summary) =
  let module J = Pc_obs.Json in
  let int n = J.Num (float_of_int n) in
  J.to_string
    (J.Obj
       [
         ("queries", int s.Metrics.queries);
         ("failures", int s.Metrics.failures);
         ("failure_rate", J.Num s.Metrics.failure_rate);
         ("median_over_estimation", J.Num s.Metrics.median_over_estimation);
         ("mean_over_estimation", J.Num s.Metrics.mean_over_estimation);
         ("degraded", int s.Metrics.degraded);
         ( "by_provenance",
           J.Obj
             (List.map
                (fun (p, n) -> (Pc_core.Bounds.provenance_name p, int n))
                s.Metrics.by_provenance) );
       ])
