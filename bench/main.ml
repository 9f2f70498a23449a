(* Benchmark & reproduction harness.

   Usage:
     dune exec bench/main.exe                 # every table and figure
     dune exec bench/main.exe -- -e fig7      # one experiment
     dune exec bench/main.exe -- -e micro     # bechamel micro-benchmarks
     dune exec bench/main.exe -- --jobs 4     # parallel bound engine
     dune exec bench/main.exe -- --baseline BENCH_decompose.json
     dune exec bench/main.exe -- --scale 0.5 --queries 50 --seed 7

   Experiment ids match DESIGN.md's per-experiment index. *)

module E = Pc_workload.Experiments
module Clock = Pc_util.Clock

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

let fig8_run ~cells ~with_dense =
  let p = fig8_problem ~cells in
  let module C = Pc_obs.Registry.Counter in
  let pivc = C.make "lp.pivots" in
  let time f =
    let t0 = Clock.now () in
    let r = f () in
    (r, Clock.elapsed_s ~since:t0 *. 1e9)
  in
  let before = C.get pivc in
  let s_out, s_ns = time (fun () -> Pc_lp.Simplex.solve p) in
  let s_piv = C.get pivc - before in
  (match s_out with
  | Pc_lp.Simplex.Optimal _ -> ()
  | _ ->
      Printf.eprintf "FATAL: fig8 revised-simplex solve (%d cells) not Optimal\n"
        cells;
      exit 1);
  let dense =
    if not with_dense then None
    else begin
      let (d_out, d_piv), d_ns =
        time (fun () -> Dense_tableau.solve_stats p)
      in
      (match d_out with
      | Pc_lp.Simplex.Optimal _ -> ()
      | _ ->
          Printf.eprintf "FATAL: fig8 dense-tableau solve (%d cells) not Optimal\n"
            cells;
          exit 1);
      Some (d_ns, d_piv)
    end
  in
  { f8_cells = cells; f8_sparse_ns = s_ns; f8_sparse_pivots = s_piv; f8_dense = dense }

(* dense runs at the 10x and 30x points; at 100x a single dense pivot
   sweeps a 200k-column tableau row set, which is exactly the cost the
   rework removes — recorded as null rather than burning CI minutes *)
let fig8_sizes = [ (20_000, true); (60_000, true); (200_000, false) ]

let micro_tests () =
  let open Bechamel in
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
    Test.make ~name:"simplex.solve (paper 4.4 shape)"
      (Staged.stage (fun () -> ignore (Pc_lp.Simplex.solve lp_problem)));
    Test.make ~name:"milp.solve (3-var knapsack)"
      (Staged.stage (fun () -> ignore (Pc_milp.Milp.solve milp_problem)));
    Test.make ~name:"milp.solve warm (6-var interval)"
      (Staged.stage (fun () ->
           ignore (Pc_milp.Milp.solve ~warm:true milp_interval)));
    Test.make ~name:"milp.solve cold (6-var interval)"
      (Staged.stage (fun () ->
           ignore (Pc_milp.Milp.solve ~warm:false milp_interval)));
    Test.make ~name:"sat.check (3-clause cell expr)"
      (Staged.stage (fun () -> ignore (Pc_predicate.Sat.check sat_cnf)));
    Test.make ~name:"cells.decompose (10 overlapping PCs)"
      (Staged.stage (fun () ->
           ignore (Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Dfs_rewrite set)));
    Test.make ~name:"cells.decompose_fdd (10 overlapping PCs)"
      (Staged.stage (fun () ->
           ignore (Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Fdd set)));
    Test.make ~name:"cells.decompose_fdd (100 overlapping PCs)"
      (Staged.stage (fun () ->
           ignore (Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Fdd set100)));
    Test.make ~name:"cells.decompose_fdd (1000 overlapping PCs)"
      (Staged.stage (fun () ->
           ignore (Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Fdd set1000)));
    Test.make ~name:"bounds.greedy (500 disjoint PCs, SUM)"
      (Staged.stage (fun () -> ignore (Pc_core.Bounds.bound disjoint_set query)));
  ]

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
   synthetic sensor data — the per-query unit Pc_workload.Runner maps in
   parallel. Kept small so the CI smoke run stays cheap. *)
let end_to_end_wall ~jobs ~queries ~rows =
  Pc_par.Pool.set_default_jobs jobs;
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
  let outs = Pc_workload.Runner.outcomes b ~missing ~queries:qs in
  let wall = Clock.elapsed_s ~since:t0 in
  Pc_par.Pool.set_default_jobs 1;
  (wall, outs)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let decompose_schema_version = 6
let serve_schema_version = 4

(* The "schema_version" an existing baseline file carries, or None when
   the file is missing/unreadable/unversioned. A cheap textual scan, not
   a JSON parse — the field is always a bare integer near the top. *)
let file_schema_version path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let s =
            really_input_string ic (min (in_channel_length ic) 4096)
          in
          let key = "\"schema_version\":" in
          let klen = String.length key in
          let rec find i =
            if i + klen > String.length s then None
            else if String.sub s i klen = key then Some (i + klen)
            else find (i + 1)
          in
          match find 0 with
          | None -> None
          | Some i ->
              let i = ref i in
              while
                !i < String.length s && (s.[!i] = ' ' || s.[!i] = '\t')
              do
                incr i
              done;
              let start = !i in
              while !i < String.length s && s.[!i] >= '0' && s.[!i] <= '9' do
                incr i
              done;
              if !i = start then None
              else int_of_string_opt (String.sub s start (!i - start)))

(* A baseline file from a *newer* schema must not be clobbered by an
   older binary — that silently downgrades the committed reference the
   CI bench gate diffs against. Same-or-older schemas are fair game. *)
let guard_schema ~writes path =
  match file_schema_version path with
  | Some v when v > writes ->
      Printf.eprintf
        "FATAL: %s carries schema v%d, newer than the v%d this binary \
         writes; refusing to overwrite (rebuild bench from the matching \
         checkout)\n"
        path v writes;
      exit 1
  | _ -> ()

let write_baseline ~queries ~rows path =
  guard_schema ~writes:decompose_schema_version path;
  Printf.printf "writing %s (schema v%d)\n%!" path decompose_schema_version;
  Printf.printf "measuring micro-benchmarks...\n%!";
  let micro = run_micro () in
  Printf.printf "measuring milp.solve pivot counts (warm vs cold)...\n%!";
  let warm_pivots, cold_pivots = milp_pivot_counts milp_interval_problem in
  let warm_starts =
    let module C = Pc_obs.Registry.Counter in
    C.get (C.make "lp.warm_starts")
  in
  let total_lp_pivots =
    let module C = Pc_obs.Registry.Counter in
    C.get (C.make "lp.pivots")
  in
  let set = overlapping_set () in
  Pc_predicate.Sat.reset_calls ();
  let dfs_cells, stats =
    Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Dfs_rewrite set
  in
  (* fdd cross-check: same cell set as the SAT-probed DFS, zero probes *)
  let fdd_cells, fdd_stats =
    Pc_core.Cells.decompose ~strategy:Pc_core.Cells.Fdd set
  in
  let fdd_matches =
    let norm cells =
      List.sort compare (List.map (fun c -> c.Pc_core.Cells.active) cells)
    in
    norm dfs_cells = norm fdd_cells
  in
  (* the --jobs clamp policy, recorded so a 1-core CI run of this file
     explains its own speedup_jobs4_over_jobs1 ~ 1.0 *)
  let jp_requested = 4 in
  let jp_probe = Pc_par.Pool.create ~jobs:jp_requested in
  let jp_effective = Pc_par.Pool.effective_jobs jp_probe in
  Pc_par.Pool.shutdown jp_probe;
  Printf.printf "measuring end-to-end workload (jobs=1, jobs=4)...\n%!";
  let wall1, outs1 = end_to_end_wall ~jobs:1 ~queries ~rows in
  let wall4, outs4 = end_to_end_wall ~jobs:4 ~queries ~rows in
  let identical = outs1 = outs4 in
  (* Traced probe of the same workload, run *after* every untraced timing
     above so span recording cannot leak into them. The per-phase totals
     show where end-to-end time goes (schema v2 field). *)
  Printf.printf "measuring per-phase span totals (traced probe)...\n%!";
  Pc_obs.Trace.set_enabled true;
  Pc_obs.Trace.reset ();
  ignore (end_to_end_wall ~jobs:1 ~queries:(min queries 20) ~rows);
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
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let p fmt = Printf.fprintf oc fmt in
      p "{\n";
      p "  \"benchmark\": \"BENCH_decompose\",\n";
      p "  \"schema_version\": %d,\n" decompose_schema_version;
      p "  \"pre_pr_reference\": { \"cells.decompose (10 overlapping PCs)\": 78755.4, \"cells.decompose_fdd (10 overlapping PCs)\": 31600.0 },\n";
      p "  \"micro_ns_per_run\": {\n";
      let n = List.length micro in
      List.iteri
        (fun i (name, est) ->
          p "    \"%s\": %s%s\n" (json_escape name)
            (match est with Some e -> Printf.sprintf "%.1f" e | None -> "null")
            (if i = n - 1 then "" else ","))
        micro;
      p "  },\n";
      p "  \"decompose_dfs_rewrite\": { \"cells\": %d, \"sat_calls\": %d, \"atom_ops\": %d },\n"
        stats.Pc_core.Cells.n_cells stats.Pc_core.Cells.sat_calls
        stats.Pc_core.Cells.atom_ops;
      (* schema v4: the fdd strategy's cell count, its zero SAT-call
         contract, and a hard cross-check against the dfs-rewrite cells *)
      p "  \"decompose_fdd\": { \"cells\": %d, \"sat_calls\": %d, \"matches_dfs_rewrite\": %b },\n"
        fdd_stats.Pc_core.Cells.n_cells fdd_stats.Pc_core.Cells.sat_calls
        fdd_matches;
      p "  \"jobs_policy\": { \"requested\": %d, \"effective\": %d, \"available_cores\": %d, \"chunk_threshold\": %d, \"reason\": \"%s\" },\n"
        jp_requested jp_effective
        (Pc_par.Pool.available_cores ())
        Pc_par.Pool.chunk_threshold
        (if jp_effective < jp_requested then
           "requested jobs clamped to available cores; batches under \
            chunk_threshold x effective items run sequentially"
         else "requested jobs within available cores");
      (* schema v3: lp.pivots cost of one warm vs one cold MILP solve of
         the 6-var interval micro, plus cumulative warm-start evidence *)
      p "  \"milp_solve_pivots\": { \"warm\": %d, \"cold\": %d, \"cold_over_warm\": %.2f },\n"
        warm_pivots cold_pivots
        (float_of_int cold_pivots /. float_of_int (max 1 warm_pivots));
      p "  \"lp_pivots_total\": %d,\n" total_lp_pivots;
      p "  \"lp_warm_starts\": %d,\n" warm_starts;
      (* schema v5: the Fig. 8 disjoint-partition scaling micro — wall
         time and pivot counts of the revised simplex against the
         retained dense tableau, per size; dense entries are null above
         its reach *)
      p "  \"fig8_simplex_scaling\": {\n";
      p "    \"paper_max_partitions\": 2000,\n";
      p "    \"sizes\": [\n";
      let nf = List.length fig8 in
      List.iteri
        (fun i f ->
          let s_npp =
            f.f8_sparse_ns /. float_of_int (max 1 f.f8_sparse_pivots)
          in
          (match f.f8_dense with
          | Some (d_ns, d_piv) ->
              let d_npp = d_ns /. float_of_int (max 1 d_piv) in
              p
                "      { \"cells\": %d, \"sparse_ns\": %.0f, \
                 \"sparse_pivots\": %d, \"sparse_ns_per_pivot\": %.1f, \
                 \"dense_ns\": %.0f, \"dense_pivots\": %d, \
                 \"dense_ns_per_pivot\": %.1f, \
                 \"sparse_beats_dense_per_pivot\": %b }"
                f.f8_cells f.f8_sparse_ns f.f8_sparse_pivots s_npp d_ns d_piv
                d_npp (s_npp < d_npp)
          | None ->
              p
                "      { \"cells\": %d, \"sparse_ns\": %.0f, \
                 \"sparse_pivots\": %d, \"sparse_ns_per_pivot\": %.1f, \
                 \"dense_ns\": null, \"dense_pivots\": null, \
                 \"dense_ns_per_pivot\": null, \
                 \"sparse_beats_dense_per_pivot\": null }"
                f.f8_cells f.f8_sparse_ns f.f8_sparse_pivots s_npp);
          p "%s\n" (if i = nf - 1 then "" else ","))
        fig8;
      p "    ]\n";
      p "  },\n";
      (* schema v6: the streaming-ingestion micro — a 1-row append
         re-bounded by the warm engine versus a full recompute of the
         equivalent residual set, on a >=500-cell overlapping dataset *)
      p
        "  \"incremental_rebound\": { \"pcs\": %d, \"cells\": %d, \
         \"rebound_ns\": %.0f, \"recompute_ns\": %.0f, \"speedup\": %.2f, \
         \"answers_agree\": %b },\n"
        im.im_pcs im.im_cells im.im_rebound_ns im.im_recompute_ns
        im.im_speedup im.im_agree;
      p "  \"phase_totals_ns\": {\n";
      let np = List.length phase_totals in
      List.iteri
        (fun i (name, count, total_ns) ->
          p "    \"%s\": { \"count\": %d, \"total_ns\": %Ld }%s\n"
            (json_escape name) count total_ns
            (if i = np - 1 then "" else ","))
        phase_totals;
      p "  },\n";
      p "  \"end_to_end_bound\": {\n";
      p "    \"queries\": %d,\n" queries;
      p "    \"jobs1_wall_s\": %.4f,\n" wall1;
      p "    \"jobs4_wall_s\": %.4f,\n" wall4;
      p "    \"speedup_jobs4_over_jobs1\": %.2f,\n" (wall1 /. Float.max 1e-9 wall4);
      p "    \"bounds_identical\": %b,\n" identical;
      p "    \"available_cores\": %d\n" (Domain.recommended_domain_count ());
      p "  }\n";
      p "}\n");
  Printf.printf "wrote %s\n" path;
  if not identical then begin
    Printf.eprintf "FATAL: --jobs 4 changed the workload outcomes\n";
    exit 1
  end;
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
          let s_npp =
            f.f8_sparse_ns /. float_of_int (max 1 f.f8_sparse_pivots)
          in
          let d_npp = d_ns /. float_of_int (max 1 d_piv) in
          if s_npp >= d_npp then begin
            Printf.eprintf
              "FATAL: fig8 %d cells: revised simplex %.1f ns/pivot is not \
               under dense %.1f ns/pivot\n"
              f.f8_cells s_npp d_npp;
            exit 1
          end)
    fig8

(* ------------------------------------------------------------------ *)
(* Closed-loop server load generator (BENCH_serve.json)                *)
(* ------------------------------------------------------------------ *)

(* N clients in a closed loop against an in-process `pcda serve` engine:
   each sends a bound request, waits for the reply, thinks, repeats.
   Latency is measured around the request only (think time excluded);
   qps is end-to-end completed requests over wall clock, the closed-loop
   convention. Schema documented in DESIGN.md, "Serving, admission
   control & fault injection". *)
let serve_baseline ~clients ~requests ~think_ms ~max_inflight path =
  guard_schema ~writes:serve_schema_version path;
  Printf.printf "writing %s (schema v%d)\n%!" path serve_schema_version;
  let module S = Pc_server.Server in
  let module C = Pc_server.Client in
  let module J = Pc_obs.Json in
  let module Counter = Pc_obs.Registry.Counter in
  let c_hits = Counter.make "cache.hits" in
  let c_misses = Counter.make "cache.misses" in
  let missing = Pc_synth.Sensor.generate (Pc_util.Rng.create 3) ~rows:2_000 in
  (* Partition on the integer device attribute only. [to_dsl] once
     printed half-open float buckets as closed, so a partition on [time]
     came back overlapping through the [load] op; it now round-trips
     exact and disjoint, but the committed BENCH_serve.json was measured
     on this [device] partition, so the workload stays as it is. *)
  let pcs =
    Pc_core.Generate.corr_partition missing ~attrs:[ "device" ] ~n:50 ()
  in
  let text =
    String.concat "\n" (List.map Pc_parse.Pc_parser.to_dsl pcs) ^ "\n"
  in
  let queries =
    [|
      "SELECT COUNT(*)";
      "SELECT SUM(light)";
      "SELECT AVG(light)";
      "SELECT MIN(light)";
      "SELECT MAX(light)";
    |]
  in
  (* One live-telemetry sample: the server's own 1 s window, as the
     [telemetry] op reports it. *)
  let jnum v names =
    let rec get v = function
      | [] -> J.to_num v
      | n :: rest -> Option.bind (J.member n v) (fun v -> get v rest)
    in
    Option.value (get v names) ~default:0.
  in
  (* One closed-loop phase against a fresh in-process server. The 5
     queries cycle, so every query repeats many times per phase — the
     cached phase answers the repeats from the bound cache; the nocache
     phase recomputes each one. A sampler thread polls the [telemetry]
     op mid-load (the windowed series in the artifact), with one
     guaranteed post-load sample so the series is never empty even for
     sub-window phases. *)
  let drive ~cache =
    Printf.printf
      "driving in-process server (cache=%b): %d clients x %d requests, \
       think %.1f ms...\n%!"
      cache clients requests think_ms;
    let hits0 = Counter.get c_hits and misses0 = Counter.get c_misses in
    let srv =
      S.create
        {
          S.default_config with
          S.policy = Pc_server.Admission.policy ~max_inflight ();
          cache;
        }
    in
    (match S.load_dataset srv ~name:"default" ~constraints:text () with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "FATAL: constraint preload failed: %s\n" e;
        exit 1);
    let th = Thread.create S.run srv in
    let port = S.port srv in
    let lat_ns = Array.make (clients * requests) nan in
    let degraded = Atomic.make 0 in
    let errors = Atomic.make 0 in
    let t0 = Clock.now () in
    let samples = ref [] in
    let stop_sampler = Atomic.make false in
    let sampler =
      Thread.create
        (fun () ->
          let c = C.connect ~host:"127.0.0.1" ~port in
          let sample () =
            match C.request c {|{"op":"telemetry"}|} with
            | Some reply -> (
                match J.parse reply with
                | Ok v ->
                    let f name = jnum v [ "windows"; "1s"; name ] in
                    samples :=
                      ( Clock.elapsed_s ~since:t0,
                        f "qps",
                        f "p99_ns",
                        f "error_rate",
                        f "degraded_fraction",
                        f "cache_hit_rate",
                        int_of_float (f "n") )
                      :: !samples
                | Error _ -> ())
            | None -> ()
          in
          while not (Atomic.get stop_sampler) do
            sample ();
            Thread.delay 0.1
          done;
          (* guaranteed post-load sample: wait out the 0.25 s slot
             boundary first so the burst's final slot is complete and
             visible to the window (in-progress slots are excluded) *)
          Thread.delay 0.3;
          sample ();
          C.close c)
        ()
    in
    let worker w =
      Thread.create
        (fun () ->
          let c = C.connect ~host:"127.0.0.1" ~port in
          for i = 0 to requests - 1 do
            let q = queries.((w + i) mod Array.length queries) in
            let line = Printf.sprintf {|{"op":"bound","query":"%s"}|} q in
            let r0 = Clock.now_ns () in
            (match C.request c line with
            | Some reply -> (
                lat_ns.((w * requests) + i) <-
                  Int64.to_float (Int64.sub (Clock.now_ns ()) r0);
                match J.parse reply with
                | Ok v -> (
                    (match J.member "degraded" v with
                    | Some (J.Bool true) -> Atomic.incr degraded
                    | _ -> ());
                    match J.member "ok" v with
                    | Some (J.Bool true) -> ()
                    | _ -> Atomic.incr errors)
                | Error _ -> Atomic.incr errors)
            | None -> Atomic.incr errors);
            if think_ms > 0. then Thread.delay (think_ms /. 1e3)
          done;
          C.close c)
        ()
    in
    let threads = List.init clients worker in
    List.iter Thread.join threads;
    let wall = Clock.elapsed_s ~since:t0 in
    Atomic.set stop_sampler true;
    Thread.join sampler;
    S.initiate_drain srv;
    Thread.join th;
    let completed =
      Array.to_list lat_ns |> List.filter (fun x -> not (Float.is_nan x))
    in
    let sorted = Array.of_list (List.sort compare completed) in
    let n = Array.length sorted in
    if n = 0 then begin
      Printf.eprintf "FATAL: no request completed\n";
      exit 1
    end;
    if Atomic.get errors > 0 then begin
      Printf.eprintf "FATAL: %d requests failed (cache=%b)\n"
        (Atomic.get errors) cache;
      exit 1
    end;
    let series = List.rev !samples in
    if series = [] then begin
      Printf.eprintf "FATAL: telemetry sampler collected no samples\n";
      exit 1
    end;
    let pct q = sorted.(min (n - 1) (int_of_float (q *. float_of_int n))) in
    ( wall,
      n,
      float_of_int n /. Float.max 1e-9 wall,
      pct 0.50,
      pct 0.99,
      float_of_int (Atomic.get degraded) /. float_of_int (clients * requests),
      Counter.get c_hits - hits0,
      Counter.get c_misses - misses0,
      series )
  in
  let phase_json oc name
      (wall, n, qps, p50, p99, degraded_frac, hits, misses, series) =
    let p fmt = Printf.fprintf oc fmt in
    p "  \"%s\": {\n" name;
    p "    \"completed\": %d,\n" n;
    p "    \"errors\": 0,\n" (* drive exits fatally on any error *);
    p "    \"wall_s\": %.4f,\n" wall;
    p "    \"qps\": %.1f,\n" qps;
    p "    \"p50_ns\": %.0f,\n" p50;
    p "    \"p99_ns\": %.0f,\n" p99;
    p "    \"degraded_fraction\": %.4f,\n" degraded_frac;
    p "    \"cache_hits\": %d,\n" hits;
    p "    \"cache_misses\": %d,\n" misses;
    (* the live windowed series, sampled from the server's telemetry op
       mid-load (1 s window); the last sample is always post-load *)
    p "    \"telemetry_1s\": [";
    List.iteri
      (fun i (t, sq, sp99, serr, sdeg, shit, sn) ->
        if i > 0 then p ",";
        p
          "\n      {\"t_s\": %.3f, \"qps\": %.1f, \"p99_ns\": %.0f, \
           \"error_rate\": %.4f, \"degraded_fraction\": %.4f, \
           \"cache_hit_rate\": %.4f, \"n\": %d}"
          t sq sp99 serr sdeg shit sn)
      series;
    p "\n    ],\n";
    (* agreement: the best-covered sample (max window n) versus what the
       clients measured end-to-end over the phase. The windowed stats
       that are well-defined for a sub-window burst — request count,
       degraded fraction, cache hit rate — must agree; qps is reported
       too but its ratio is ~wall/window for bursts shorter than the
       1 s window (the window divides by its span, not the burst). *)
    let best =
      List.fold_left
        (fun acc ((_, _, _, _, _, _, sn) as s) ->
          match acc with
          | Some (_, _, _, _, _, _, bn) when bn >= sn -> acc
          | _ -> Some s)
        None series
    in
    let bq, bdeg, bhit, bn =
      match best with
      | Some (_, q, _, _, d, h, sn) -> (q, d, h, sn)
      | None -> (0., 0., 0., 0)
    in
    let client_hit_rate =
      if hits + misses = 0 then 0.
      else float_of_int hits /. float_of_int (hits + misses)
    in
    p
      "    \"agreement\": {\"server_window_n\": %d, \"client_completed\": \
       %d, \"count_ratio\": %.3f, \"server_window_qps\": %.1f, \
       \"client_qps\": %.1f, \"qps_ratio\": %.3f, \
       \"server_degraded_fraction\": %.4f, \"client_degraded_fraction\": \
       %.4f, \"server_cache_hit_rate\": %.4f, \"client_cache_hit_rate\": \
       %.4f}\n"
      bn n
      (float_of_int bn /. Float.max 1. (float_of_int n))
      bq qps
      (bq /. Float.max 1e-9 qps)
      bdeg degraded_frac bhit client_hit_rate;
    p "  }"
  in
  (* The ingest phase: clients run selective bound queries while an
     ingester thread appends batches that only touch the low-device
     region. Delta-scoped invalidation must keep the untouched queries'
     cached replies alive — the phase fails if no hit lands while
     batches are streaming in. *)
  let c_incr = Counter.make "ingest.incremental_bounds" in
  let drive_ingest ~batches ~rows_per_batch =
    Printf.printf
      "driving in-process server (ingest): %d clients x %d requests + %d \
       append batches x %d rows...\n%!"
      clients requests batches rows_per_batch;
    let hits0 = Counter.get c_hits and misses0 = Counter.get c_misses in
    let incr0 = Counter.get c_incr in
    let srv =
      S.create
        {
          S.default_config with
          S.policy = Pc_server.Admission.policy ~max_inflight ();
          cache = true;
        }
    in
    (match S.load_dataset srv ~name:"default" ~constraints:text () with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "FATAL: constraint preload failed: %s\n" e;
        exit 1);
    let th = Thread.create S.run srv in
    let port = S.port srv in
    (* two query families: the >= ones never see an appended row or a
       touched PC (they survive every batch); the <= ones are evicted by
       each batch and recomputed *)
    let iqueries =
      [|
        "SELECT COUNT(*) WHERE device >= 30";
        "SELECT SUM(light) WHERE device >= 30";
        "SELECT COUNT(*) WHERE device >= 40";
        "SELECT SUM(light) WHERE device >= 40";
        "SELECT COUNT(*) WHERE device <= 5";
        "SELECT SUM(light) WHERE device <= 5";
      |]
    in
    let lat_ns = Array.make (clients * requests) nan in
    let errors = Atomic.make 0 in
    let ingest_errors = Atomic.make 0 in
    let evicted = Atomic.make 0 in
    let appended = Atomic.make 0 in
    let ingest_wall = ref 0. in
    let t0 = Clock.now () in
    let ingester =
      Thread.create
        (fun () ->
          let c = C.connect ~host:"127.0.0.1" ~port in
          let ti0 = Clock.now () in
          for b = 0 to batches - 1 do
            let buf = Buffer.create 512 in
            Buffer.add_string buf "device,time,light\n";
            for r = 0 to rows_per_batch - 1 do
              Buffer.add_string buf
                (Printf.sprintf "%d,%d.0,%d.0\n"
                   ((b + r) mod 6)
                   ((b * 1000) + r)
                   (50 + r))
            done;
            let line =
              J.to_string
                (J.Obj
                   [
                     ("op", J.Str "append");
                     ("csv", J.Str (Buffer.contents buf));
                   ])
            in
            (match C.request c line with
            | Some reply -> (
                match J.parse reply with
                | Ok v when J.member "ok" v = Some (J.Bool true) ->
                    ignore (Atomic.fetch_and_add appended rows_per_batch);
                    ignore
                      (Atomic.fetch_and_add evicted
                         (int_of_float (jnum v [ "cache_evicted" ])))
                | Ok _ | Error _ -> Atomic.incr ingest_errors)
            | None -> Atomic.incr ingest_errors);
            Thread.delay 0.005
          done;
          ingest_wall := Clock.elapsed_s ~since:ti0;
          C.close c)
        ()
    in
    let worker w =
      Thread.create
        (fun () ->
          let c = C.connect ~host:"127.0.0.1" ~port in
          for i = 0 to requests - 1 do
            let q = iqueries.((w + i) mod Array.length iqueries) in
            let line = Printf.sprintf {|{"op":"bound","query":"%s"}|} q in
            let r0 = Clock.now_ns () in
            (match C.request c line with
            | Some reply -> (
                lat_ns.((w * requests) + i) <-
                  Int64.to_float (Int64.sub (Clock.now_ns ()) r0);
                match J.parse reply with
                | Ok v -> (
                    match J.member "ok" v with
                    | Some (J.Bool true) -> ()
                    | _ -> Atomic.incr errors)
                | Error _ -> Atomic.incr errors)
            | None -> Atomic.incr errors);
            if think_ms > 0. then Thread.delay (think_ms /. 1e3)
          done;
          C.close c)
        ()
    in
    let threads = List.init clients worker in
    List.iter Thread.join threads;
    Thread.join ingester;
    let wall = Clock.elapsed_s ~since:t0 in
    S.initiate_drain srv;
    Thread.join th;
    let completed =
      Array.to_list lat_ns |> List.filter (fun x -> not (Float.is_nan x))
    in
    let sorted = Array.of_list (List.sort compare completed) in
    let n = Array.length sorted in
    if n = 0 then begin
      Printf.eprintf "FATAL: no request completed in the ingest phase\n";
      exit 1
    end;
    if Atomic.get errors > 0 then begin
      Printf.eprintf "FATAL: %d bound requests failed during ingest\n"
        (Atomic.get errors);
      exit 1
    end;
    if Atomic.get ingest_errors > 0 then begin
      Printf.eprintf "FATAL: %d append batches failed\n"
        (Atomic.get ingest_errors);
      exit 1
    end;
    let hits = Counter.get c_hits - hits0 in
    if hits = 0 then begin
      Printf.eprintf
        "FATAL: zero cache hits across append batches — delta-scoped \
         invalidation is evicting everything\n";
      exit 1
    end;
    let pct q = sorted.(min (n - 1) (int_of_float (q *. float_of_int n))) in
    ( wall,
      n,
      float_of_int n /. Float.max 1e-9 wall,
      pct 0.50,
      pct 0.99,
      hits,
      Counter.get c_misses - misses0,
      Atomic.get appended,
      !ingest_wall,
      Atomic.get evicted,
      Counter.get c_incr - incr0 )
  in
  let nocache = drive ~cache:false in
  let cached = drive ~cache:true in
  let ingest_batches = 12 and ingest_rows_per_batch = 25 in
  let ingest = drive_ingest ~batches:ingest_batches ~rows_per_batch:ingest_rows_per_batch in
  let qps_of (_, _, q, _, _, _, _, _, _) = q in
  let hits_of (_, _, _, _, _, _, h, _, _) = h in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let p fmt = Printf.fprintf oc fmt in
      p "{\n";
      p "  \"benchmark\": \"BENCH_serve\",\n";
      p "  \"schema_version\": %d,\n" serve_schema_version;
      p "  \"config\": { \"clients\": %d, \"requests_per_client\": %d, \"think_ms\": %.1f, \"max_inflight\": %d },\n"
        clients requests think_ms max_inflight;
      p "  \"total_requests_per_phase\": %d,\n" (clients * requests);
      phase_json oc "nocache" nocache;
      p ",\n";
      phase_json oc "cached" cached;
      p ",\n";
      (* schema v4: the streaming-ingestion phase — append batches
         interleaved with selective bound queries; the hit counters
         prove delta-scoped invalidation kept untouched replies alive *)
      let ( i_wall,
            i_n,
            i_qps,
            i_p50,
            i_p99,
            i_hits,
            i_misses,
            i_rows,
            i_iwall,
            i_evicted,
            i_incr ) =
        ingest
      in
      p "  \"ingest\": {\n";
      p "    \"completed\": %d,\n" i_n;
      p "    \"errors\": 0,\n";
      p "    \"wall_s\": %.4f,\n" i_wall;
      p "    \"qps\": %.1f,\n" i_qps;
      p "    \"p50_ns\": %.0f,\n" i_p50;
      p "    \"p99_ns\": %.0f,\n" i_p99;
      p "    \"cache_hits\": %d,\n" i_hits;
      p "    \"cache_misses\": %d,\n" i_misses;
      p "    \"batches\": %d,\n" ingest_batches;
      p "    \"rows\": %d,\n" i_rows;
      p "    \"ingest_wall_s\": %.4f,\n" i_iwall;
      p "    \"rows_per_s\": %.1f,\n"
        (float_of_int i_rows /. Float.max 1e-9 i_iwall);
      p "    \"cache_evicted\": %d,\n" i_evicted;
      p "    \"incremental_bounds\": %d\n" i_incr;
      p "  },\n";
      p "  \"qps_speedup_cached_over_nocache\": %.2f\n"
        (qps_of cached /. Float.max 1e-9 (qps_of nocache));
      p "}\n");
  Printf.printf "wrote %s\n" path;
  if hits_of cached = 0 then begin
    Printf.eprintf "FATAL: cached phase recorded zero cache hits\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let experiment = ref "all" in
  let scale = ref 1. in
  let queries = ref 100 in
  let seed = ref 42 in
  let jobs = ref 1 in
  let list_only = ref false in
  let baseline_out = ref None in
  let serve_out = ref None in
  let clients = ref 8 in
  let requests = ref 40 in
  let think_ms = ref 1. in
  let max_inflight = ref 64 in
  let trace_out = ref None in
  let specs =
    [
      ("-e", Arg.Set_string experiment, "EXPERIMENT id (default: all)");
      ("--experiment", Arg.Set_string experiment, "same as -e");
      ("--scale", Arg.Set_float scale, "FLOAT dataset-size multiplier (default 1.0)");
      ("--queries", Arg.Set_int queries, "INT workload size per experiment (default 100)");
      ("--seed", Arg.Set_int seed, "INT RNG seed (default 42)");
      ( "--jobs",
        Arg.Set_int jobs,
        "N worker domains for the parallel bound engine (default 1)" );
      ( "--baseline",
        Arg.String (fun s -> baseline_out := Some s),
        "FILE write the machine-readable bench baseline (JSON) and exit" );
      ( "--serve-baseline",
        Arg.String (fun s -> serve_out := Some s),
        "FILE drive the bound server with a closed-loop load and write \
         qps/latency/degradation JSON" );
      ("--clients", Arg.Set_int clients, "N concurrent load-generator clients (default 8)");
      ( "--requests",
        Arg.Set_int requests,
        "N requests per client for --serve-baseline (default 40)" );
      ( "--think",
        Arg.Set_float think_ms,
        "MS think time between closed-loop requests (default 1)" );
      ( "--max-inflight",
        Arg.Set_int max_inflight,
        "N server admission-control knob for --serve-baseline (default 64)" );
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
    (match (!baseline_out, !serve_out) with
    | _, Some path ->
        serve_baseline ~clients:!clients ~requests:!requests
          ~think_ms:!think_ms ~max_inflight:!max_inflight path
    | Some path, None ->
        write_baseline
          ~queries:(min !queries 50)
          ~rows:(max 100 (int_of_float (2_000. *. !scale)))
          path
    | None, None ->
        let cfg =
          { E.seed = !seed; scale = !scale; queries = !queries; jobs = !jobs }
        in
        Printf.printf
          "Predicate-Constraints reproduction (seed=%d scale=%g queries=%d jobs=%d)\n"
          !seed !scale !queries !jobs;
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
