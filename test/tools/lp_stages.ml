(* Stage costs of the Rand-PC bound path on paper_batch-shaped queries.

   Rebuilds the Rand-PC asks of perfbench's paper_batch workload: 20k
   synthetic sensor rows with the top half by light missing (data seed
   1), 32 sets of 40 overlapping PCs (seed 3), and per set 2 COUNT and 2
   SUM(light) queries (seed 2), drawn in the order paper_batch draws
   them.

   Per query, on the path [Bounds.bound] takes with the default options
   (pushdown to the PCs that overlap the query, [Dfs_rewrite], tighten):
     decompose         Cells.decompose
     regions           the regions the decomposition builds on its way
                       down: Cells.regions less Cells.decompose
     regions (oracle)  the per-cell build that replaced: every active
                       PC's rows met again for each cell
                       (Cell_region.cell over decompose's cells)
     prepare           the allocation rows laid out as columns
                       (Bounds.allocation_columns) and compiled
                       (Simplex.of_columns)
     prepare (list)    the same rows as constraint lists
                       (Alloc_list.rows) through Simplex.compile

   Then per solve, on the COUNT/SUM programs of [Bounds.program] (cells
   from the FDD, one consumption column per covering PC), boxed at zero
   consumption as an incremental engine's first re-bound is:
     compile   Simplex.of_columns of the program's rows
     compile (list)  Simplex.compile of the same rows as lists
     solve     Simplex.solve_compiled on those rows (its post-solve
               self-check included), every solve reusing the compiled
               value
     check     Simplex.check_solution on the optimum; standalone, so it
               compiles its own copy of the rows
     fresh     compile then solve, back to back: what one query's first
               solve costs
   then FTRAN and BTRAN nanoseconds and pivots per solve, read from the
   lp.ftran_ns / lp.btran_ns / lp.pivots counters in a separate pass with
   the metrics registry on (those clocks only run then).

   Times are the median of 5 rounds of [reps] passes over the queries or
   programs, in µs and minor words per call. The first three stages run
   back to back on each query, so that host drift falls on all three.

   Off the tier-1 path:
     dune exec test/tools/lp_stages.exe -- [--reps N] *)

module S = Pc_lp.Simplex
module Counter = Pc_obs.Registry.Counter
module Pc_set = Pc_core.Pc_set
module Box_table = Pc_core.Box_table
module Cells = Pc_core.Cells
module Q = Pc_query.Query

type ask = {
  set : Pc_set.t;
  fdd : Pc_predicate.Fdd.compiled;
  query : Q.t;
  sub : Pc_set.t;  (** the PCs that overlap the query *)
  q : Box_table.query;
  table : Cell_region.table;  (** the oracle's table of [sub] *)
  cells : int list list;  (** decompose's cells *)
  kept : int list array;  (** the inhabitable ones *)
}

let asks () =
  let rng = Pc_util.Rng.create 1 in
  let rel = Pc_synth.Sensor.generate rng ~rows:20_000 in
  let missing =
    (Pc_synth.Missing.top_values rel ~attr:"light" ~fraction:0.5).Pc_synth.Missing.missing
  in
  let attrs = [ "device"; "time" ] in
  let qrng = Pc_util.Rng.create 2 and prng = Pc_util.Rng.create 3 in
  List.concat
    (List.init 32 (fun _ ->
         let queries =
           List.concat_map
             (fun agg -> Pc_workload.Querygen.random_queries qrng missing ~attrs ~agg ~n:2)
             [ Pc_workload.Querygen.Count; Pc_workload.Querygen.Sum "light" ]
         in
         let set = Pc_set.make (Pc_core.Generate.rand_pcs prng missing ~attrs ~n:40 ()) in
         let fdd =
           Pc_predicate.Fdd.compile
             (Array.of_list (List.map (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred) (Pc_set.pcs set)))
         in
         List.map
           (fun (query : Q.t) ->
             let tbl = Pc_set.table set and rows = Pc_set.rows set in
             let qpred = query.Q.where_ in
             let q = Box_table.query tbl qpred in
             let sub =
               Pc_set.filter
                 (fun i -> Box_table.boxed tbl rows.(i) && Box_table.overlaps tbl q rows.(i))
                 set
             in
             let cells, _ = Cells.decompose ~query_pred:qpred sub in
             let kept = ref [] in
             ignore
               (Cells.regions ~tighten:true ~query:q ~query_pred:qpred sub (fun active _ ->
                    kept := active :: !kept));
             {
               set;
               fdd;
               query;
               sub;
               q;
               table = Cell_region.table sub;
               cells;
               kept = Array.of_list (List.rev !kept);
             })
           queries))
  |> Array.of_list

(* Mean ns and minor words per call of [f] over every item, [reps]
   times over; the median round of 5. *)
let measure ~reps items f =
  let round () =
    Gc.full_major ();
    let w0 = Gc.minor_words () and t0 = Pc_util.Clock.now_ns () in
    for _ = 1 to reps do
      Array.iteri f items
    done;
    let ns = Int64.to_float (Int64.sub (Pc_util.Clock.now_ns ()) t0) in
    let words = Gc.minor_words () -. w0 in
    let calls = float_of_int (reps * Array.length items) in
    (ns /. calls, words /. calls)
  in
  let rounds = Array.init 5 (fun _ -> round ()) in
  Array.sort compare rounds;
  rounds.(2)

(* The functions [fs] back to back on each item, so that host drift
   falls on all of them: per function, mean ns per call (the median
   round of 5) and minor words per call. *)
let measure_together ~reps items fs =
  let k = Array.length fs in
  let round () =
    let total = Array.make k 0L in
    for _ = 1 to reps do
      Array.iteri
        (fun i x ->
          Array.iteri
            (fun j f ->
              let t0 = Pc_util.Clock.now_ns () in
              f i x;
              total.(j) <- Int64.add total.(j) (Int64.sub (Pc_util.Clock.now_ns ()) t0))
            fs)
        items
    done;
    let calls = float_of_int (reps * Array.length items) in
    Array.map (fun t -> Int64.to_float t /. calls) total
  in
  let rounds = Array.init 5 (fun _ -> round ()) in
  Array.mapi
    (fun j f ->
      let a = Array.map (fun r -> r.(j)) rounds in
      Array.sort compare a;
      (a.(2), snd (measure ~reps:1 items f)))
    fs

let row name (ns, words) = Printf.printf "%-16s %10.2f %12.0f\n" name (ns /. 1e3) words

let freq_bounds set =
  let pcs = Array.of_list (Pc_set.pcs set) in
  (* paper_batch's Rand-PCs have no frequency lower bound, so every
     effective kl is 0 *)
  Array.iter (fun (pc : Pc_core.Pc.t) -> assert (pc.Pc_core.Pc.freq_lo = 0)) pcs;
  (Array.make (Array.length pcs) 0, Array.map (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.freq_hi) pcs)

let per_query ~reps asks =
  let n = Array.length asks in
  let mean f = Array.fold_left (fun acc a -> acc +. float_of_int (f a)) 0. asks /. float_of_int n in
  Printf.printf "Rand-PC queries %d (PCs after pushdown %.1f, cells %.1f, inhabitable %.1f), reps %d\n" n
    (mean (fun a -> Pc_set.size a.sub))
    (mean (fun a -> List.length a.cells))
    (mean (fun a -> Array.length a.kept))
    reps;
  Printf.printf "%-16s %10s %12s\n" "stage" "us/query" "words/query";
  (* both decompositions build the query's row, as [Bounds] does once *)
  let query a = Box_table.query (Pc_set.table a.sub) a.query.Q.where_ in
  let stages =
    measure_together ~reps asks
      [|
        (fun _ a ->
          ignore (query a);
          ignore (Cells.decompose ~query_pred:a.query.Q.where_ a.sub));
        (fun _ a ->
          let kept = ref 0 in
          ignore
            (Cells.regions ~tighten:true ~query:(query a) ~query_pred:a.query.Q.where_ a.sub
               (fun _ _ -> incr kept)));
        (fun _ a ->
          let q = Cell_region.query a.table a.query.Q.where_ in
          let values = Cell_region.acc a.table and clip = Cell_region.acc a.table in
          let kept = ref 0 in
          List.iter
            (fun active ->
              if Cell_region.cell a.table ~tighten:true q values clip active then incr kept)
            a.cells);
      |]
  in
  let decompose = stages.(0) and fused = stages.(1) and oracle = stages.(2) in
  let bounds = Array.map (fun a -> freq_bounds a.sub) asks in
  let prepare =
    measure ~reps asks (fun i a ->
        let kl, ku = bounds.(i) in
        ignore (S.of_columns (Pc_core.Bounds.allocation_columns ~cells:a.kept ~kl ~ku ~consumption:false)))
  in
  let prepare_list =
    measure ~reps asks (fun i a ->
        let kl, ku = bounds.(i) in
        let n_vars, constraints = Alloc_list.rows ~cells:a.kept ~kl ~ku ~consumption:false in
        ignore (S.compile { S.n_vars; maximize = true; objective = []; constraints; var_bounds = [] }))
  in
  row "decompose" decompose;
  row "regions" (fst fused -. fst decompose, snd fused -. snd decompose);
  row "regions (oracle)" oracle;
  row "prepare" prepare;
  row "prepare (list)" prepare_list

type program = {
  columns : S.columns;
  problem : S.problem;  (** the same rows as lists, with the objective *)
  objective : float array;
  maximize : bool;
  bounds : float array * float array;
}

let programs asks =
  Array.to_list asks
  |> List.concat_map (fun a ->
         match Pc_core.Bounds.program ~fdd:a.fdd a.set a.query with
         | None -> []
         | Some prog ->
             let cells = ref [] in
             ignore
               (Cells.regions ~strategy:Cells.Fdd ~fdd:a.fdd ~tighten:true
                  ~query:(Box_table.query (Pc_set.table a.set) a.query.Q.where_)
                  ~query_pred:a.query.Q.where_ a.set (fun active _ -> cells := active :: !cells));
             let cells = Array.of_list (List.rev !cells) in
             assert (Array.length cells = prog.Pc_core.Bounds.cells);
             let kl, ku = freq_bounds a.set in
             let columns = Pc_core.Bounds.allocation_columns ~cells ~kl ~ku ~consumption:true in
             let n_vars, constraints = Alloc_list.rows ~cells ~kl ~ku ~consumption:true in
             let lo = Array.make n_vars 0. and hi = Array.make n_vars infinity in
             if not (Pc_core.Bounds.rebox prog ~consumed:(Array.make (Pc_set.size a.set) 0) ~lo ~hi)
             then []
             else
               List.map
                 (fun (maximize, objective) ->
                   let sparse =
                     List.filter (fun (_, c) -> c <> 0.) (List.mapi (fun i c -> (i, c)) (Array.to_list objective))
                   in
                   {
                     columns;
                     problem = { S.n_vars; maximize; objective = sparse; constraints; var_bounds = [] };
                     objective;
                     maximize;
                     bounds = (lo, hi);
                   })
                 ((true, prog.Pc_core.Bounds.obj_hi)
                 :: Option.to_list (Option.map (fun o -> (false, o)) prog.Pc_core.Bounds.obj_lo)))
  |> Array.of_list

let per_solve ~reps progs =
  let n = Array.length progs in
  let mean f = Array.fold_left (fun acc x -> acc +. float_of_int (f x)) 0. progs /. float_of_int n in
  let lps = Array.map (fun p -> S.of_columns p.columns) progs in
  let solve_on lp p =
    match S.solve_compiled lp ~maximize:p.maximize ~objective:p.objective ~bounds:p.bounds with
    | S.Optimal sol, _ -> sol
    | _ -> failwith "lp_stages: a program did not solve to optimality"
  in
  let solve i p = solve_on lps.(i) p in
  let sols = Array.mapi solve progs in
  Printf.printf "\nprograms %d (rows %.1f, columns %.1f, mean), reps %d\n" n
    (mean (fun p -> Array.length p.columns.S.row_ops))
    (mean (fun p -> p.problem.S.n_vars))
    reps;
  Printf.printf "%-16s %10s %12s\n" "stage" "us/solve" "words/solve";
  row "compile" (measure ~reps progs (fun _ p -> ignore (S.of_columns p.columns)));
  row "compile (list)" (measure ~reps progs (fun _ p -> ignore (S.compile p.problem)));
  row "solve" (measure ~reps progs (fun i p -> ignore (solve i p)));
  row "check"
    (measure ~reps progs (fun i p ->
         match S.check_solution p.problem sols.(i) with
         | Ok () -> ()
         | Error msg -> failwith ("lp_stages: self-check failed: " ^ msg)));
  row "fresh" (measure ~reps progs (fun _ p -> ignore (solve_on (S.of_columns p.columns) p)));
  Pc_obs.Registry.set_enabled true;
  let get k = Counter.get (Counter.make k) in
  let f0 = get "lp.ftran_ns" and b0 = get "lp.btran_ns" and p0 = get "lp.pivots" in
  Array.iteri (fun i p -> ignore (solve i p)) progs;
  Pc_obs.Registry.set_enabled false;
  let per k0 k = float_of_int (get k - k0) /. float_of_int n in
  Printf.printf "ftran_ns/solve %.0f  btran_ns/solve %.0f  pivots/solve %.2f\n"
    (per f0 "lp.ftran_ns") (per b0 "lp.btran_ns") (per p0 "lp.pivots")

let () =
  let reps = ref 40 in
  Arg.parse [ ("--reps", Arg.Set_int reps, "N passes over the queries per round (40)") ]
    (fun a -> raise (Arg.Bad a))
    "lp_stages [--reps N]";
  let asks = asks () in
  per_query ~reps:!reps asks;
  per_solve ~reps:!reps (programs asks)
