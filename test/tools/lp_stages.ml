(* Stage costs of the allocation LP on paper_batch-shaped programs.

   Rebuilds the Rand-PC allocation programs of perfbench's paper_batch
   workload through [Bounds.program]: 20k synthetic sensor rows with the
   top half by light missing (data seed 1), 32 sets of 40 overlapping
   PCs (seed 3), and per set 2 COUNT and 2 SUM(light) queries (seed 2),
   drawn in the order paper_batch draws them. Each program is boxed at
   zero consumption, as an incremental engine's first re-bound is.

   Prints, per solve, the wall time and minor words of each stage:
     compile  Simplex.compile of the program's rows
     solve    Simplex.solve_compiled on those rows (its post-solve
              self-check included), every solve reusing the compiled
              value
     check    Simplex.check_solution on the optimum; standalone, so it
              compiles its own copy of the rows
     fresh    compile then solve, back to back: what one query's first
              solve costs
   Times are the median of 5 rounds of [reps] passes over the programs.
   then FTRAN and BTRAN nanoseconds and pivots per solve, read from the
   lp.ftran_ns / lp.btran_ns / lp.pivots counters in a separate pass with
   the metrics registry on (those clocks only run then).

   Off the tier-1 path:
     dune exec test/tools/lp_stages.exe -- [--reps N] *)

module S = Pc_lp.Simplex
module Counter = Pc_obs.Registry.Counter

let programs () =
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
         let set = Pc_core.Pc_set.make (Pc_core.Generate.rand_pcs prng missing ~attrs ~n:40 ()) in
         let fdd =
           Pc_predicate.Fdd.compile
             (Array.of_list (List.map (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred) (Pc_core.Pc_set.pcs set)))
         in
         List.filter_map
           (fun q ->
             Option.bind (Pc_core.Bounds.program ~fdd set q) (fun prog ->
                 let n = prog.Pc_core.Bounds.hi.S.n_vars in
                 let lo = Array.make n 0. and hi = Array.make n infinity in
                 if Pc_core.Bounds.rebox prog ~consumed:(Array.make (Pc_core.Pc_set.size set) 0) ~lo ~hi
                 then
                   Some
                     (List.map
                        (fun p -> (p, (lo, hi)))
                        (prog.Pc_core.Bounds.hi :: Option.to_list prog.Pc_core.Bounds.lo))
                 else None))
           queries
         |> List.concat))
  |> Array.of_list

(* Mean ns and minor words per call of [f] over every program, [reps]
   times over; the median round of 5. *)
let measure ~reps progs f =
  let round () =
    Gc.full_major ();
    let w0 = Gc.minor_words () and t0 = Pc_util.Clock.now_ns () in
    for _ = 1 to reps do
      Array.iteri f progs
    done;
    let ns = Int64.to_float (Int64.sub (Pc_util.Clock.now_ns ()) t0) in
    let words = Gc.minor_words () -. w0 in
    let calls = float_of_int (reps * Array.length progs) in
    (ns /. calls, words /. calls)
  in
  let rounds = Array.init 5 (fun _ -> round ()) in
  Array.sort compare rounds;
  rounds.(2)

let () =
  let reps = ref 40 in
  Arg.parse [ ("--reps", Arg.Set_int reps, "N passes over the programs per round (40)") ]
    (fun a -> raise (Arg.Bad a))
    "lp_stages [--reps N]";
  let reps = !reps in
  let progs = programs () in
  let n = Array.length progs in
  let mean f = Array.fold_left (fun acc x -> acc +. float_of_int (f x)) 0. progs /. float_of_int n in
  let lps = Array.map (fun (p, _) -> S.compile p) progs in
  let objs = Array.map (fun (p, _) -> S.objective_vector p) progs in
  let solve_on lp i (p, bounds) =
    match S.solve_compiled lp ~maximize:p.S.maximize ~objective:objs.(i) ~bounds with
    | S.Optimal sol, _ -> sol
    | _ -> failwith "lp_stages: a program did not solve to optimality"
  in
  let solve i pb = solve_on lps.(i) i pb in
  let sols = Array.mapi solve progs in
  Printf.printf "programs %d (rows %.1f, columns %.1f, mean), reps %d\n" n
    (mean (fun (p, _) -> List.length p.S.constraints))
    (mean (fun (p, _) -> p.S.n_vars))
    reps;
  Printf.printf "%-8s %10s %12s\n" "stage" "us/solve" "words/solve";
  let row name (ns, words) = Printf.printf "%-8s %10.2f %12.0f\n" name (ns /. 1e3) words in
  let compile_cost = measure ~reps progs (fun _ (p, _) -> ignore (S.compile p)) in
  let solve_cost = measure ~reps progs (fun i pb -> ignore (solve i pb)) in
  row "compile" compile_cost;
  row "solve" solve_cost;
  row "check"
    (measure ~reps progs (fun i (p, _) ->
         match S.check_solution p sols.(i) with
         | Ok () -> ()
         | Error msg -> failwith ("lp_stages: self-check failed: " ^ msg)));
  row "fresh" (measure ~reps progs (fun i ((p, _) as pb) -> ignore (solve_on (S.compile p) i pb)));
  Pc_obs.Registry.set_enabled true;
  let get k = Counter.get (Counter.make k) in
  let f0 = get "lp.ftran_ns" and b0 = get "lp.btran_ns" and p0 = get "lp.pivots" in
  Array.iteri (fun i pb -> ignore (solve i pb)) progs;
  let per k0 k = float_of_int (get k - k0) /. float_of_int n in
  Printf.printf "ftran_ns/solve %.0f  btran_ns/solve %.0f  pivots/solve %.2f\n"
    (per f0 "lp.ftran_ns") (per b0 "lp.btran_ns") (per p0 "lp.pivots")
