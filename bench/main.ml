(* Benchmark & reproduction harness.

   Usage:
     dune exec bench/main.exe                 # every table and figure
     dune exec bench/main.exe -- -e fig7      # one experiment
     dune exec bench/main.exe -- -e micro     # bechamel micro-benchmarks
     dune exec bench/main.exe -- --baseline BENCH_decompose.json
     dune exec bench/main.exe -- --scale 0.5 --queries 50 --seed 7

   Experiment ids match DESIGN.md's per-experiment index. *)

module E = Pc_workload.Experiments
module Clock = Pc_util.Clock
module J = Pc_obs.Json

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the solver stack                       *)
(* ------------------------------------------------------------------ *)

(* the decomposition stress fixture: n overlapping one-attribute ranges.
   The domain grows with n (6 units per PC) so overlap depth stays flat
   and cell count stays linear — the regime where the FDD path walk wins
   and the DFS SAT-probe cost is pure overhead. n = 10 reproduces the
   original fixture draw-for-draw (seed 7, hi = 60). *)
let overlapping_set_n n =
  let rng = Pc_util.Rng.create 7 in
  let pcs =
    List.init n (fun i ->
        let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:(6. *. float_of_int n) in
        let w = Pc_util.Rng.uniform rng ~lo:20. ~hi:50. in
        Pc_core.Pc.make
          ~name:(Printf.sprintf "p%d" i)
          ~pred:[ Pc_predicate.Atom.between "x" lo (lo +. w) ]
          ~values:[ ("v", Pc_interval.Interval.closed 0. 100.) ]
          ~freq:(0, 10) ())
  in
  Pc_core.Pc_set.make pcs

let overlapping_set () = overlapping_set_n 10

(* Interval rows (a >=/<= pair per PC) over overlapping cell coverage:
   the MILP shape the PC framework emits, and the one where warm starts
   pay — a cold solve runs phase 1 for the >= rows at every node, while
   a warm child re-optimizes the parent basis with a few dual pivots. *)
let milp_interval_problem =
  let open Pc_lp.Simplex in
  let n = 6 in
  let rows =
    List.concat
      (List.init (n - 1) (fun k ->
           let coeffs = [ (k, 1.); (k + 1, 1.) ] in
           [
             c_ge coeffs (float_of_int (k + 1) +. 0.5);
             c_le coeffs (float_of_int (2 * (k + 2)) +. 0.5);
           ]))
  in
  {
    n_vars = n;
    maximize = true;
    objective = List.init n (fun j -> (j, float_of_int ((j mod 3) + 1)));
    constraints = rows;
    var_bounds = [];
  }

(* lp.pivots cost of one warm and one cold MILP solve of [p]; also the
   source of the "warm starts actually happened" smoke signal. *)
let milp_pivot_counts p =
  let module C = Pc_obs.Registry.Counter in
  let pivots = C.make "lp.pivots" in
  let run warm =
    let before = C.get pivots in
    ignore (Pc_milp.Milp.solve ~warm p);
    C.get pivots - before
  in
  (run true, run false)

(* ------------------------------------------------------------------ *)
(* Fig. 8 disjoint-partition scaling: dense tableau vs revised simplex *)
(* ------------------------------------------------------------------ *)

(* The disjoint-partition contingency LP at 10-100x the paper's cell
   counts (Fig. 8 tops out at 2000 partitions): one column per cell,
   boxed by the partition's tuple cap, cells bucketed into group budget
   rows plus one global missing-row budget. Block-angular, ~2 nonzeros
   per column — the regime where the dense tableau pays O(m*n) per pivot
   while the revised simplex pays O(column nnz * eta nnz). *)
let fig8_problem ~cells =
  let open Pc_lp.Simplex in
  let rng = Pc_util.Rng.create 23 in
  let groups = 40 + (cells / 2000) in
  let group_rows = Array.make groups [] in
  for j = cells - 1 downto 0 do
    let g = j mod groups in
    group_rows.(g) <- (j, 1.) :: group_rows.(g)
  done;
  let constraints =
    c_le (List.init cells (fun j -> (j, 1.))) (6. *. float_of_int groups)
    :: Array.to_list (Array.map (fun row -> c_le row 12.) group_rows)
  in
  {
    n_vars = cells;
    maximize = true;
    objective =
      List.init cells (fun j -> (j, 0.5 +. Pc_util.Rng.uniform rng ~lo:0. ~hi:1.));
    constraints;
    var_bounds = List.init cells (fun j -> (j, 0., 10.));
  }

type fig8_point = {
  f8_cells : int;
  f8_sparse_ns : float;
  f8_sparse_pivots : int;
  f8_dense : (float * int) option;  (* ns, pivots; None above dense reach *)
}

(* Each side's wall time is the median of [fig8_repeats] solves, the two
   sides taken in alternation, so one slow moment on a shared host
   cannot decide the per-pivot comparison. Pivot counts are
   deterministic, so the first repeat's stand for all. *)
let fig8_repeats = 5

let f8_ns_per_pivot ns pivots = ns /. float_of_int (max 1 pivots)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let fig8_run ~cells ~with_dense =
  let p = fig8_problem ~cells in
  let module C = Pc_obs.Registry.Counter in
  let pivc = C.make "lp.pivots" in
  let sparse () =
    let before = C.get pivc in
    let out = Pc_lp.Simplex.solve p in
    (out, C.get pivc - before)
  in
  let time name solve =
    let t0 = Clock.now () in
    let out, pivots = solve () in
    let ns = Clock.elapsed_s ~since:t0 *. 1e9 in
    (match out with
    | Pc_lp.Simplex.Optimal _ -> ()
    | _ ->
        Printf.eprintf "FATAL: fig8 %s solve (%d cells) not Optimal\n" name
          cells;
        exit 1);
    (ns, pivots)
  in
  let runs =
    List.init fig8_repeats (fun _ ->
        let s = time "revised-simplex" sparse in
        let d =
          if with_dense then
            Some (time "dense-tableau" (fun () -> Dense_tableau.solve_stats p))
          else None
        in
        (s, d))
  in
  let summary side =
    let ns, pivots = List.split (List.map side runs) in
    (median ns, List.hd pivots)
  in
  let s_ns, s_piv = summary fst in
  {
    f8_cells = cells;
    f8_sparse_ns = s_ns;
    f8_sparse_pivots = s_piv;
    f8_dense =
      (if with_dense then Some (summary (fun (_, d) -> Option.get d))
       else None);
  }

let json_int n = J.Num (float_of_int n)

(* [x] at the fixed-point precision the baseline has always recorded *)
let json_fixed digits x =
  J.Num (float_of_string (Printf.sprintf "%.*f" digits x))

(* one size's entry; the dense keys are null above the tableau's reach *)
let fig8_json f =
  let s_npp = f8_ns_per_pivot f.f8_sparse_ns f.f8_sparse_pivots in
  let dense =
    match f.f8_dense with
    | Some (d_ns, d_piv) ->
        let d_npp = f8_ns_per_pivot d_ns d_piv in
        [
          ("dense_ns", json_fixed 0 d_ns);
          ("dense_pivots", json_int d_piv);
          ("dense_ns_per_pivot", json_fixed 1 d_npp);
          ("sparse_beats_dense_per_pivot", J.Bool (s_npp < d_npp));
        ]
    | None ->
        List.map
          (fun k -> (k, J.Null))
          [
            "dense_ns";
            "dense_pivots";
            "dense_ns_per_pivot";
            "sparse_beats_dense_per_pivot";
          ]
  in
  J.Obj
    ([
       ("cells", json_int f.f8_cells);
       ("sparse_ns", json_fixed 0 f.f8_sparse_ns);
       ("sparse_pivots", json_int f.f8_sparse_pivots);
       ("sparse_ns_per_pivot", json_fixed 1 s_npp);
     ]
    @ dense)

(* dense runs at the 10x and 30x points; at 100x a single dense pivot
   sweeps a 200k-column tableau row set, which is exactly the cost the
   rework removes — recorded as null rather than burning CI minutes *)
let fig8_sizes = [ (20_000, true); (60_000, true); (200_000, false) ]

(* Each micro-benchmark's name and body. *)
let micro_bodies () =
  (* simplex: the paper's worked-example LP shape *)
  let lp_problem =
    let open Pc_lp.Simplex in
    {
      n_vars = 2;
      maximize = true;
      objective = [ (0, 129.99); (1, 149.99) ];
      constraints =
        [
          c_ge [ (0, 1.) ] 50.;
          c_le [ (0, 1.) ] 100.;
          c_ge [ (0, 1.); (1, 1.) ] 75.;
          c_le [ (0, 1.); (1, 1.) ] 125.;
        ];
      var_bounds = [];
    }
  in
  let milp_problem =
    let open Pc_lp.Simplex in
    {
      n_vars = 3;
      maximize = true;
      objective = [ (0, 5.); (1, 4.); (2, 3.) ];
      constraints =
        [
          c_le [ (0, 2.); (1, 3.); (2, 1.) ] 5.;
          c_le [ (0, 4.); (1, 1.); (2, 2.) ] 11.;
          c_le [ (0, 3.); (1, 4.); (2, 2.) ] 8.;
        ];
      var_bounds = [];
    }
  in
  let set = overlapping_set () in
  let set100 = overlapping_set_n 100 in
  let set1000 = overlapping_set_n 1000 in
  let milp_interval = milp_interval_problem in
  let missing = Pc_synth.Sensor.generate (Pc_util.Rng.create 3) ~rows:5_000 in
  let disjoint_set =
    Pc_core.Pc_set.make
      (Pc_core.Generate.corr_partition missing ~attrs:[ "device"; "time" ] ~n:500 ())
  in
  ignore (Pc_core.Pc_set.is_disjoint disjoint_set);
  let sat_cnf =
    let open Pc_predicate in
    Cnf.of_pred [ Atom.between "x" 0. 50. ]
    |> Cnf.conj (Cnf.of_neg_pred [ Atom.between "x" 10. 20. ])
    |> Cnf.conj (Cnf.of_neg_pred [ Atom.between "x" 30. 40. ])
  in
  let query = Pc_query.Query.sum "light" in
  [
    ("simplex.solve (paper 4.4 shape)", fun () -> ignore (Pc_lp.Simplex.solve lp_problem));
    ("milp.solve (3-var knapsack)", fun () -> ignore (Pc_milp.Milp.solve milp_problem));
    ( "milp.solve warm (6-var interval)",
      fun () -> ignore (Pc_milp.Milp.solve ~warm:true milp_interval) );
    ( "milp.solve cold (6-var interval)",
      fun () -> ignore (Pc_milp.Milp.solve ~warm:false milp_interval) );
    ("sat.check (3-clause cell expr)", fun () -> ignore (Pc_predicate.Sat.check sat_cnf));
    ( "cells.decompose (10 overlapping PCs)",
      fun () -> ignore (Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Dfs_rewrite set) );
    ( "cells.decompose_fdd (10 overlapping PCs)",
      fun () -> ignore (Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Fdd set) );
    ( "cells.decompose_fdd (100 overlapping PCs)",
      fun () -> ignore (Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Fdd set100) );
    ( "cells.decompose_fdd (1000 overlapping PCs)",
      fun () -> ignore (Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Fdd set1000) );
    ( "bounds.greedy (500 disjoint PCs, SUM)",
      fun () -> ignore (Pc_core.Bounds.bound disjoint_set query) );
  ]

let micro_tests () =
  let open Bechamel in
  List.map
    (fun (name, body) -> Test.make ~name (Staged.stage body))
    (micro_bodies ())

(* lp.pivots and lp.warm_starts over one run of every micro body: a
   fixed list of solves, so the totals do not depend on how many runs
   Bechamel's time quota fitted on the host. *)
let lp_counts () =
  let module C = Pc_obs.Registry.Counter in
  let pivots = C.make "lp.pivots" and warm = C.make "lp.warm_starts" in
  let bodies = micro_bodies () in
  let p0 = C.get pivots and w0 = C.get warm in
  List.iter (fun (_, body) -> body ()) bodies;
  (C.get pivots - p0, C.get warm - w0)

(* ns/run estimates, in test declaration order *)
let run_micro () =
  let open Bechamel in
  let open Toolkit in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 200) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Instance.monotonic_clock results
  in
  List.concat_map
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.fold
        (fun name ols acc ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> (name, Some est) :: acc
          | Some _ | None -> (name, None) :: acc)
        results [])
    (micro_tests ())

let micro_benchmarks () =
  Pc_workload.Report.section "Micro-benchmarks (bechamel, monotonic clock)";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "  %-42s %12.1f ns/run\n" name est
      | None -> Printf.printf "  %-42s (no estimate)\n" name)
    (run_micro ())

(* ------------------------------------------------------------------ *)
(* Incremental rebound vs full recompute (streaming-ingestion micro)   *)
(* ------------------------------------------------------------------ *)

type incr_micro = {
  im_pcs : int;
  im_cells : int;
  im_rebound_ns : float;
  im_recompute_ns : float;
  im_speedup : float;
  im_agree : bool;
}

(* The ingestion hot loop in isolation: a 1-row append to a >=500-cell
   overlapping dataset, re-bounded by the warm engine (dual-simplex
   repair from the previous basis, pure bound changes) versus the full
   path (FDD decomposition + cold LP) on the equivalent residual set.
   The append/retract alternation keeps the consumption vector
   stationary across timing iterations. *)
let incremental_micro () =
  let n = 300 in
  let set = overlapping_set_n n in
  let fdd =
    Pc_predicate.Fdd.compile
      (Array.of_list
         (List.map
            (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred)
            (Pc_core.Pc_set.pcs set)))
  in
  let query = Pc_query.Query.sum "v" in
  let eng =
    match Pc_core.Incremental.create ~fdd set query with
    | Some e -> e
    | None ->
        Printf.eprintf "FATAL: incremental engine out of scope on its micro\n";
        exit 1
  in
  let cells = Pc_core.Incremental.n_cells eng in
  let consumed = Array.make n 0 in
  (* prime the basis: the engine's first rebound is its cold solve *)
  ignore (Pc_core.Incremental.rebound eng ~consumed);
  (* the appended row's active set: any inhabited cell's PC cover *)
  let actives =
    match List.find_opt (fun ids -> ids <> []) (Pc_predicate.Fdd.cells fdd) with
    | Some ids -> ids
    | None ->
        Printf.eprintf "FATAL: ingest micro found no covered cell\n";
        exit 1
  in
  let iters = 20 in
  let warm_answers = ref [] in
  let t_warm = ref 0. in
  for i = 1 to iters do
    let v = if i mod 2 = 1 then 1 else 0 in
    List.iter (fun j -> consumed.(j) <- v) actives;
    let t0 = Clock.now () in
    (match Pc_core.Incremental.rebound eng ~consumed with
    | Some a ->
        t_warm := !t_warm +. Clock.elapsed_s ~since:t0;
        warm_answers := a :: !warm_answers
    | None ->
        Printf.eprintf "FATAL: incremental rebound starved on its micro\n";
        exit 1)
  done;
  let residual v =
    Pc_core.Pc_set.make
      (List.mapi
         (fun j (pc : Pc_core.Pc.t) ->
           if v = 1 && List.mem j actives then
             Pc_core.Pc.make ~name:pc.Pc_core.Pc.name ~pred:pc.Pc_core.Pc.pred
               ~values:pc.Pc_core.Pc.values
               ~freq:
                 (max 0 (pc.Pc_core.Pc.freq_lo - 1), max 0 (pc.Pc_core.Pc.freq_hi - 1))
               ()
           else pc)
         (Pc_core.Pc_set.pcs set))
  in
  let opts =
    { Pc_core.Bounds.default_opts with Pc_core.Bounds.strategy = Pc_core.Cells.Fdd }
  in
  let cold_answers = ref [] in
  let t_cold = ref 0. in
  for i = 1 to iters do
    let v = if i mod 2 = 1 then 1 else 0 in
    let rset = residual v in
    let t0 = Clock.now () in
    let o = Pc_core.Bounds.bound_budgeted ~opts ~fdd rset query in
    t_cold := !t_cold +. Clock.elapsed_s ~since:t0;
    cold_answers := o.Pc_core.Bounds.answer :: !cold_answers
  done;
  let close a b =
    Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
  in
  let agree =
    List.for_all2
      (fun w c ->
        match (w, c) with
        | Pc_core.Bounds.Range rw, Pc_core.Bounds.Range rc ->
            close rw.Pc_core.Range.lo rc.Pc_core.Range.lo
            && close rw.Pc_core.Range.hi rc.Pc_core.Range.hi
        | a, b -> a = b)
      !warm_answers !cold_answers
  in
  let rebound_ns = !t_warm /. float_of_int iters *. 1e9 in
  let recompute_ns = !t_cold /. float_of_int iters *. 1e9 in
  {
    im_pcs = n;
    im_cells = cells;
    im_rebound_ns = rebound_ns;
    im_recompute_ns = recompute_ns;
    im_speedup = recompute_ns /. Float.max 1e-9 rebound_ns;
    im_agree = agree;
  }

(* ------------------------------------------------------------------ *)
(* Machine-readable baseline (BENCH_decompose.json)                    *)
(* ------------------------------------------------------------------ *)

(* The end-to-end probe: a PC baseline answering a query workload about
   synthetic sensor data, one query at a time through Pc_workload.Runner.
   Kept small so the CI smoke run stays cheap. *)
let end_to_end_wall ~queries ~rows =
  let missing = Pc_synth.Sensor.generate (Pc_util.Rng.create 3) ~rows in
  let set =
    Pc_core.Pc_set.make
      (Pc_core.Generate.corr_partition missing ~attrs:[ "device"; "time" ] ~n:50 ())
  in
  let qs =
    Pc_workload.Querygen.random_queries (Pc_util.Rng.create 11) missing
      ~attrs:[ "device"; "time" ] ~agg:(Pc_workload.Querygen.Sum "light")
      ~n:queries
  in
  let b = Pc_workload.Runner.of_pc_set "PC" set in
  let t0 = Clock.now () in
  ignore (Pc_workload.Runner.outcomes b ~missing ~queries:qs);
  Clock.elapsed_s ~since:t0

let schema_version = 7

(* The "schema_version" an existing baseline file carries, or None when
   the file is missing, unreadable, not JSON or unversioned. *)
let file_schema_version path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match J.parse text with
      | Error _ -> None
      | Ok v ->
          Option.bind (J.member "schema_version" v) J.to_num
          |> Option.map int_of_float)

(* A baseline file from a *newer* schema must not be clobbered by an
   older binary — that silently downgrades the committed reference the
   CI bench gate diffs against. Same-or-older schemas are fair game. *)
let guard_schema path =
  match file_schema_version path with
  | Some v when v > schema_version ->
      Printf.eprintf
        "FATAL: %s carries schema v%d, newer than the v%d this binary \
         writes; refusing to overwrite (rebuild bench from the matching \
         checkout)\n"
        path v schema_version;
      exit 1
  | _ -> ()

let write_baseline ~queries ~rows path =
  guard_schema path;
  Printf.printf "writing %s (schema v%d)\n%!" path schema_version;
  Printf.printf "measuring micro-benchmarks...\n%!";
  let micro = run_micro () in
  Printf.printf "measuring milp.solve pivot counts (warm vs cold)...\n%!";
  let warm_pivots, cold_pivots = milp_pivot_counts milp_interval_problem in
  let total_lp_pivots, warm_starts = lp_counts () in
  let set = overlapping_set () in
  Pc_predicate.Sat.reset_calls ();
  let dfs_cells, stats =
    Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Dfs_rewrite set
  in
  (* fdd cross-check: the SAT-probed DFS's cells in its order, zero probes *)
  let fdd_cells, fdd_stats =
    Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Fdd set
  in
  let fdd_matches = dfs_cells = fdd_cells in
  Printf.printf "measuring end-to-end workload...\n%!";
  let wall = end_to_end_wall ~queries ~rows in
  (* Traced probe of the same workload, run *after* every untraced timing
     above so span recording cannot leak into them. The per-phase totals
     show where end-to-end time goes (schema v2 field). *)
  Printf.printf "measuring per-phase span totals (traced probe)...\n%!";
  Pc_obs.Trace.set_enabled true;
  Pc_obs.Trace.reset ();
  ignore (end_to_end_wall ~queries:(min queries 20) ~rows);
  Pc_obs.Trace.set_enabled false;
  let phase_totals = Pc_obs.Trace.totals_by_name () in
  Printf.printf
    "measuring fig8 disjoint-partition scaling (dense vs revised simplex)...\n%!";
  let fig8 =
    List.map (fun (cells, with_dense) -> fig8_run ~cells ~with_dense) fig8_sizes
  in
  Printf.printf
    "measuring incremental rebound vs full recompute (ingest micro)...\n%!";
  let im = incremental_micro () in
  let baseline =
    J.Obj
      [
        ("benchmark", J.Str "BENCH_decompose");
        ("schema_version", json_int schema_version);
        ( "pre_pr_reference",
          J.Obj
            [
              ("cells.decompose (10 overlapping PCs)", J.Num 78755.4);
              ("cells.decompose_fdd (10 overlapping PCs)", J.Num 31600.0);
            ] );
        ( "micro_ns_per_run",
          J.Obj
            (List.map
               (fun (name, est) ->
                 (name, Option.fold ~none:J.Null ~some:(json_fixed 1) est))
               micro) );
        ( "decompose_dfs_rewrite",
          J.Obj
            [
              ("cells", json_int stats.Pc_core.Cells.n_cells);
              ("sat_calls", json_int stats.Pc_core.Cells.sat_calls);
              ("atom_ops", json_int stats.Pc_core.Cells.atom_ops);
            ] );
        (* schema v4: the fdd strategy's cell count, its zero SAT-call
           contract, and a hard cross-check against the dfs-rewrite cells *)
        ( "decompose_fdd",
          J.Obj
            [
              ("cells", json_int fdd_stats.Pc_core.Cells.n_cells);
              ("sat_calls", json_int fdd_stats.Pc_core.Cells.sat_calls);
              ("matches_dfs_rewrite", J.Bool fdd_matches);
            ] );
        (* schema v3: lp.pivots cost of one warm vs one cold MILP solve
           of the 6-var interval micro, plus cumulative warm-start
           evidence *)
        ( "milp_solve_pivots",
          J.Obj
            [
              ("warm", json_int warm_pivots);
              ("cold", json_int cold_pivots);
              ( "cold_over_warm",
                json_fixed 2
                  (float_of_int cold_pivots
                  /. float_of_int (max 1 warm_pivots)) );
            ] );
        ("lp_pivots_total", json_int total_lp_pivots);
        ("lp_warm_starts", json_int warm_starts);
        (* schema v5: the Fig. 8 disjoint-partition scaling micro — wall
           time and pivot counts of the revised simplex against the
           retained dense tableau, per size; dense entries are null
           above its reach *)
        ( "fig8_simplex_scaling",
          J.Obj
            [
              ("paper_max_partitions", json_int 2000);
              ("sizes", J.Arr (List.map fig8_json fig8));
            ] );
        (* schema v6: the streaming-ingestion micro — a 1-row append
           re-bounded by the warm engine versus a full recompute of the
           equivalent residual set, on a >=500-cell overlapping dataset *)
        ( "incremental_rebound",
          J.Obj
            [
              ("pcs", json_int im.im_pcs);
              ("cells", json_int im.im_cells);
              ("rebound_ns", json_fixed 0 im.im_rebound_ns);
              ("recompute_ns", json_fixed 0 im.im_recompute_ns);
              ("speedup", json_fixed 2 im.im_speedup);
              ("answers_agree", J.Bool im.im_agree);
            ] );
        ( "phase_totals_ns",
          J.Obj
            (List.map
               (fun (name, count, total_ns) ->
                 ( name,
                   J.Obj
                     [
                       ("count", json_int count);
                       ("total_ns", J.Num (Int64.to_float total_ns));
                     ] ))
               phase_totals) );
        ( "end_to_end_bound",
          J.Obj
            [
              ("queries", json_int queries);
              ("wall_s", json_fixed 4 wall);
            ] );
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string baseline ^ "\n"));
  Printf.printf "wrote %s\n" path;
  if warm_starts = 0 then begin
    Printf.eprintf "FATAL: warm path never engaged (lp.warm_starts = 0)\n";
    exit 1
  end;
  if not fdd_matches then begin
    Printf.eprintf "FATAL: fdd decomposition disagrees with dfs-rewrite\n";
    exit 1
  end;
  (* the ingestion tentpole's reason to exist: a 1-row append must
     re-bound at least 5x faster than the full recompute, on a dataset
     big enough (>=500 cells) for the comparison to mean anything *)
  if im.im_cells < 500 then begin
    Printf.eprintf "FATAL: ingest micro ran on %d cells (< 500)\n" im.im_cells;
    exit 1
  end;
  if not im.im_agree then begin
    Printf.eprintf
      "FATAL: incremental rebound disagrees with the full recompute\n";
    exit 1
  end;
  if im.im_speedup < 5. then begin
    Printf.eprintf
      "FATAL: incremental rebound speedup %.2fx is under the 5x floor\n"
      im.im_speedup;
    exit 1
  end;
  (* the rework's reason to exist: pivot-weighted time must favor the
     revised simplex at every size the dense tableau can still handle *)
  List.iter
    (fun f ->
      match f.f8_dense with
      | None -> ()
      | Some (d_ns, d_piv) ->
          let s_npp = f8_ns_per_pivot f.f8_sparse_ns f.f8_sparse_pivots in
          let d_npp = f8_ns_per_pivot d_ns d_piv in
          if s_npp >= d_npp then begin
            Printf.eprintf
              "FATAL: fig8 %d cells: revised simplex %.1f ns/pivot is not \
               under dense %.1f ns/pivot\n"
              f.f8_cells s_npp d_npp;
            exit 1
          end)
    fig8

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let experiment = ref "all" in
  let scale = ref 1. in
  let queries = ref 100 in
  let seed = ref 42 in
  let list_only = ref false in
  let baseline_out = ref None in
  let trace_out = ref None in
  let specs =
    [
      ("-e", Arg.Set_string experiment, "EXPERIMENT id (default: all)");
      ("--experiment", Arg.Set_string experiment, "same as -e");
      ("--scale", Arg.Set_float scale, "FLOAT dataset-size multiplier (default 1.0)");
      ("--queries", Arg.Set_int queries, "INT workload size per experiment (default 100)");
      ("--seed", Arg.Set_int seed, "INT RNG seed (default 42)");
      ( "--baseline",
        Arg.String (fun s -> baseline_out := Some s),
        "FILE write the machine-readable bench baseline (JSON) and exit" );
      ( "--trace",
        Arg.String (fun s -> trace_out := Some s),
        "FILE record a Chrome trace_event JSON of the run (chrome://tracing)" );
      ("--list", Arg.Set list_only, " list experiment ids and exit");
    ]
  in
  Arg.parse specs
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "Predicate-Constraints reproduction harness";
  if !list_only then begin
    List.iter (fun (id, desc, _) -> Printf.printf "%-22s %s\n" id desc) E.all;
    Printf.printf "%-22s %s\n" "micro" "bechamel micro-benchmarks of the solver stack"
  end
  else begin
    (match !trace_out with
    | None -> ()
    | Some _ ->
        Pc_obs.Trace.set_enabled true;
        Pc_obs.Trace.reset ());
    (match !baseline_out with
    | Some path ->
        write_baseline
          ~queries:(min !queries 50)
          ~rows:(max 100 (int_of_float (2_000. *. !scale)))
          path
    | None ->
        let cfg = { E.seed = !seed; scale = !scale; queries = !queries } in
        Printf.printf
          "Predicate-Constraints reproduction (seed=%d scale=%g queries=%d)\n"
          !seed !scale !queries;
        let run_one (id, _desc, f) =
          let t0 = Clock.now () in
          f cfg;
          Printf.printf "  [%s finished in %.1f s]\n" id (Clock.elapsed_s ~since:t0)
        in
        (match !experiment with
        | "all" ->
            List.iter run_one E.all;
            micro_benchmarks ()
        | "micro" -> micro_benchmarks ()
        | id -> (
            match List.find_opt (fun (i, _, _) -> i = id) E.all with
            | Some exp -> run_one exp
            | None ->
                Printf.eprintf "unknown experiment %S; use --list\n" id;
                exit 1)));
    match !trace_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Pc_obs.Trace.to_chrome_json ()));
        Printf.printf "trace: %d spans -> %s\n"
          (List.length (Pc_obs.Trace.spans ()))
          path
  end
