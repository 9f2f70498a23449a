(* Cross-module algebraic laws of the framework. These are the properties
   a user implicitly relies on when composing constraints:

   - refinement: adding a constraint never widens a result range;
   - pushdown consistency: a query's bound is dominated by the bound of
     any weaker predicate;
   - frequency scaling: doubling all frequency caps doubles COUNT/SUM
     upper bounds (disjoint case);
   - splitting: replacing a bucket by an exact two-way split never
     widens;
   - cell geometry: decomposition cells partition each predicate region;
   - duality: MILP minimization equals negated maximization. *)

module Q = Pc_query.Query
module Atom = Pc_predicate.Atom
module I = Pc_interval.Interval
module V = Pc_data.Value
module S = Pc_lp.Simplex
open Pc_core

let schema =
  Pc_data.Schema.of_names
    [ ("t", Pc_data.Schema.Numeric); ("v", Pc_data.Schema.Numeric) ]

let random_relation rng n =
  Pc_data.Relation.create schema
    (List.init n (fun _ ->
         [|
           V.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:100.);
           V.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:50.);
         |]))

let random_query rng =
  let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:80. in
  let w = Pc_util.Rng.uniform rng ~lo:10. ~hi:40. in
  let where_ = [ Atom.between "t" lo (lo +. w) ] in
  if Pc_util.Rng.bool rng then Q.sum ~where_ "v" else Q.count ~where_ ()

let random_pc rng i =
  let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:80. in
  let w = Pc_util.Rng.uniform rng ~lo:10. ~hi:40. in
  let vlo = Pc_util.Rng.uniform rng ~lo:0. ~hi:30. in
  let vw = Pc_util.Rng.uniform rng ~lo:1. ~hi:20. in
  Pc.make
    ~name:(Printf.sprintf "pc%d" i)
    ~pred:[ Atom.between "t" lo (lo +. w) ]
    ~values:[ ("v", I.closed vlo (vlo +. vw)) ]
    ~freq:(0, 1 + Pc_util.Rng.int rng 30)
    ()

let random_set rng k = Pc_set.make (List.init k (random_pc rng))

let hi_of = function
  | Bounds.Range r -> r.Range.hi
  | Bounds.Empty -> neg_infinity
  | Bounds.Infeasible -> neg_infinity

let lo_of = function
  | Bounds.Range r -> r.Range.lo
  | Bounds.Empty -> infinity
  | Bounds.Infeasible -> infinity

(* ------------------------- refinement law --------------------------- *)

(* Note the subtlety: under closure, a predicate doubles as an existence
   permission, so adding a constraint over a *fresh* region can widen the
   range (it allows rows that were previously impossible). Refinement
   only holds when the added predicate lies inside the already-covered
   region — which is how we generate it here. *)
let prop_refinement =
  QCheck.Test.make
    ~name:"adding a covered constraint never widens COUNT/SUM ranges"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let base_pcs = List.init (2 + Pc_util.Rng.int rng 4) (random_pc rng) in
      let host = List.nth base_pcs (Pc_util.Rng.int rng (List.length base_pcs)) in
      let host_iv =
        match host.Pc.pred with
        | [ Atom.Num_range (_, iv) ] -> iv
        | _ -> assert false
      in
      let hlo = I.lo_float host_iv and hhi = I.hi_float host_iv in
      let a = Pc_util.Rng.uniform rng ~lo:hlo ~hi:hhi in
      let b = Pc_util.Rng.uniform rng ~lo:a ~hi:hhi in
      let extra =
        Pc.make ~name:"extra"
          ~pred:[ Atom.between "t" a b ]
          ~values:[ ("v", I.closed 0. (Pc_util.Rng.uniform rng ~lo:1. ~hi:40.)) ]
          ~freq:(0, 1 + Pc_util.Rng.int rng 20)
          ()
      in
      let base = Pc_set.make base_pcs in
      let refined = Pc_set.make (extra :: base_pcs) in
      let query = random_query rng in
      let b = Bounds.bound base query and r = Bounds.bound refined query in
      (* refined feasible set ⊆ base feasible set *)
      hi_of r <= hi_of b +. 1e-6 *. Float.max 1. (Float.abs (hi_of b))
      && lo_of r >= lo_of b -. 1e-6 *. Float.max 1. (Float.abs (lo_of b)))

(* --------------------- pushdown consistency law --------------------- *)

let prop_pushdown_monotone =
  QCheck.Test.make
    ~name:"narrower query predicates never raise the SUM upper bound"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let set = random_set rng (3 + Pc_util.Rng.int rng 3) in
      let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:60. in
      let w = Pc_util.Rng.uniform rng ~lo:10. ~hi:30. in
      let narrow = Q.sum ~where_:[ Atom.between "t" lo (lo +. w) ] "v" in
      let wide = Q.sum ~where_:[ Atom.between "t" (lo -. 10.) (lo +. w +. 10.) ] "v" in
      (* values are non-negative here, so any instance's narrow SUM is at
         most its wide SUM; bounds must respect that *)
      hi_of (Bounds.bound set narrow)
      <= hi_of (Bounds.bound set wide) +. 1e-6)

(* ------------------------ frequency scaling ------------------------- *)

let scale_freq k (pc : Pc.t) =
  Pc.make ~name:pc.Pc.name ~pred:pc.Pc.pred ~values:pc.Pc.values
    ~freq:(k * pc.Pc.freq_lo, k * pc.Pc.freq_hi)
    ()

let prop_frequency_scaling =
  QCheck.Test.make
    ~name:"doubling disjoint frequency caps doubles COUNT/SUM tops" ~count:80
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let rel = random_relation rng 200 in
      let pcs = Generate.corr_partition rel ~attrs:[ "t" ] ~n:6 () in
      let set1 = Pc_set.make pcs in
      let set2 = Pc_set.make (List.map (scale_freq 2) pcs) in
      let query = random_query rng in
      let h1 = hi_of (Bounds.bound set1 query) in
      let h2 = hi_of (Bounds.bound set2 query) in
      Float.abs (h2 -. (2. *. h1)) <= 1e-6 *. Float.max 1. (Float.abs h2))

(* --------------------------- split law ------------------------------ *)

let prop_split_never_widens =
  QCheck.Test.make
    ~name:"splitting a bucket into exact halves never widens" ~count:80
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let rel = random_relation rng 300 in
      let coarse = Pc_set.make (Generate.corr_partition rel ~attrs:[ "t" ] ~n:4 ()) in
      let fine = Pc_set.make (Generate.corr_partition rel ~attrs:[ "t" ] ~n:8 ()) in
      let query = random_query rng in
      (* both hold on rel; the finer summary is at least as tight *)
      hi_of (Bounds.bound fine query)
      <= hi_of (Bounds.bound coarse query)
         +. 1e-6 *. Float.max 1. (Float.abs (hi_of (Bounds.bound coarse query))))

(* ----------------------- cell geometry laws ------------------------- *)

(* A query predicate: none, a [t] window, or a [t] window and a [v] band
   ([v] is an attribute no PC predicate ranges over). *)
let random_query_pred rng =
  let lo = Pc_util.Rng.uniform rng ~lo:(-10.) ~hi:100. in
  let w = Pc_util.Rng.uniform rng ~lo:10. ~hi:60. in
  match Pc_util.Rng.int rng 3 with
  | 0 -> Pc_predicate.Pred.tt
  | 1 -> [ Atom.between "t" lo (lo +. w) ]
  | _ -> [ Atom.between "t" lo (lo +. w); Atom.between "v" 10. 40. ]

(* A random set of 2 to 7 PCs, small enough for [Naive], and a query
   predicate; [law] sees every strategy's cells, each paired with its
   region rebuilt from its active set, and 60 random points. *)
let for_every_strategy rng law =
  let set = random_set rng (2 + Pc_util.Rng.int rng 6) in
  let query_pred = random_query_pred rng in
  let n = Pc_set.size set in
  let points =
    List.init 60 (fun _ ->
        let t = Pc_util.Rng.uniform rng ~lo:(-10.) ~hi:140. in
        let v = Pc_util.Rng.uniform rng ~lo:(-10.) ~hi:80. in
        [| V.Num t; V.Num v |])
  in
  List.for_all
    (fun strategy ->
      let cells, _ = Cells.decompose ~strategy ~query_pred set in
      let cells =
        List.map
          (fun active ->
            let region = Cell_region.cnf set query_pred active in
            (active, Pc_predicate.Cnf.eval schema region))
          cells
      in
      List.for_all (law set query_pred cells) points
      || QCheck.Test.fail_reportf "%s on %d PCs" (Cells.strategy_name strategy) n)
    Cells.[ Naive; Dfs; Dfs_rewrite; Early_stop (Pc_util.Rng.int rng (n + 1)); Fdd ]

let prop_cells_partition =
  QCheck.Test.make
    ~name:"cells are disjoint and cover exactly the query ∩ union of predicates"
    ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      for_every_strategy (Pc_util.Rng.create seed) (fun set query_pred cells row ->
          let in_some_pred =
            List.exists
              (fun (pc : Pc.t) -> Pc_predicate.Pred.eval schema pc.Pc.pred row)
              (Pc_set.pcs set)
          in
          let containing = List.filter (fun (_, inside) -> inside row) cells in
          (* inside the query and the union of predicates: exactly one
             cell; outside: none *)
          let expected =
            if in_some_pred && Pc_predicate.Pred.eval schema query_pred row then 1 else 0
          in
          List.length containing = expected))

let prop_cell_active_sets_correct =
  QCheck.Test.make
    ~name:"a cell's active set matches pointwise predicate membership"
    ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      for_every_strategy (Pc_util.Rng.create seed) (fun set _ cells row ->
          let memberships =
            List.concat
              (List.mapi
                 (fun j (pc : Pc.t) ->
                   if Pc_predicate.Pred.eval schema pc.Pc.pred row then [ j ] else [])
                 (Pc_set.pcs set))
          in
          (* an active set is non-empty, strictly ascending and in range *)
          let rec ascending lo = function
            | [] -> true
            | j :: rest -> lo <= j && j < Pc_set.size set && ascending (j + 1) rest
          in
          List.for_all
            (fun (active, inside) ->
              active <> [] && ascending 0 active && ((not (inside row)) || active = memberships))
            cells))

(* ----------------------------- duality ------------------------------ *)

let prop_milp_duality =
  QCheck.Test.make ~name:"min f = -max (-f) for the MILP" ~count:100
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let n = 2 + Pc_util.Rng.int rng 2 in
      let constraints =
        List.init (1 + Pc_util.Rng.int rng 3) (fun _ ->
            let coeffs =
              List.init n (fun j -> (j, float_of_int (Pc_util.Rng.int rng 3)))
            in
            S.c_le coeffs (float_of_int (2 + Pc_util.Rng.int rng 10)))
      in
      let objective =
        List.init n (fun j -> (j, float_of_int (Pc_util.Rng.int rng 7 - 3)))
      in
      let p = { S.n_vars = n; maximize = false; objective; constraints; var_bounds = [] } in
      let neg =
        {
          p with
          S.maximize = true;
          objective = List.map (fun (j, c) -> (j, -.c)) objective;
        }
      in
      match (Pc_milp.Milp.solve p, Pc_milp.Milp.solve neg) with
      | Pc_milp.Milp.Optimal a, Pc_milp.Milp.Optimal b ->
          Float.abs (a.Pc_milp.Milp.bound +. b.Pc_milp.Milp.bound) < 1e-5
      | Pc_milp.Milp.Infeasible, Pc_milp.Milp.Infeasible -> true
      | Pc_milp.Milp.Unbounded, Pc_milp.Milp.Unbounded -> true
      | _ -> false)

(* -------------------- strategy-independence law --------------------- *)

let prop_bounds_strategy_independent =
  QCheck.Test.make
    ~name:"bounds agree across exact decomposition strategies" ~count:60
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let set = random_set rng (2 + Pc_util.Rng.int rng 3) in
      let query = random_query rng in
      let bound_with strategy =
        Bounds.bound
          ~opts:{ Bounds.default_opts with Bounds.strategy; use_greedy = false }
          set query
      in
      let a = bound_with Cells.Naive in
      let b = bound_with Cells.Dfs in
      let c = bound_with Cells.Dfs_rewrite in
      let close x y =
        Float.abs (x -. y) <= 1e-6 *. Float.max 1. (Float.abs x)
        || (Float.is_nan x && Float.is_nan y)
        || x = y
      in
      close (hi_of a) (hi_of b)
      && close (hi_of b) (hi_of c)
      && close (lo_of a) (lo_of b)
      && close (lo_of b) (lo_of c))

(* ------------------ early stop only loosens, soundly ---------------- *)

let prop_earlystop_sound_loosening =
  QCheck.Test.make
    ~name:"early-stop bounds contain the exact bounds" ~count:60
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let k = 3 + Pc_util.Rng.int rng 3 in
      let set = random_set rng k in
      let query = random_query rng in
      let exact =
        Bounds.bound
          ~opts:{ Bounds.default_opts with Bounds.use_greedy = false }
          set query
      in
      let approx =
        Bounds.bound
          ~opts:
            {
              Bounds.default_opts with
              Bounds.strategy = Cells.Early_stop (k / 2);
              use_greedy = false;
            }
          set query
      in
      hi_of approx >= hi_of exact -. 1e-6
      && lo_of approx <= lo_of exact +. 1e-6)

(* ------------- exact-count constraints: two-sided soundness --------- *)

let prop_exact_counts_sound =
  (* freq (count, count) exercises the MILP lower-bound machinery that
     the usual (0, count) generators never touch *)
  QCheck.Test.make
    ~name:"bounds with exact-count constraints contain truth" ~count:100
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let missing = random_relation rng (50 + Pc_util.Rng.int rng 150) in
      let pcs =
        Generate.corr_partition ~exact_counts:true missing ~attrs:[ "t" ] ~n:6 ()
      in
      let set = Pc_set.make pcs in
      let query = random_query rng in
      match (Bounds.bound set query, Q.eval missing query) with
      | Bounds.Infeasible, _ -> false
      | Bounds.Empty, None -> true
      | Bounds.Empty, Some _ -> false
      | Bounds.Range _, None -> true
      | Bounds.Range r, Some truth -> Range.contains r truth)

let prop_exact_counts_pin_count =
  QCheck.Test.make
    ~name:"exact counts pin the unrestricted COUNT exactly" ~count:60
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let missing = random_relation rng (30 + Pc_util.Rng.int rng 100) in
      let pcs =
        Generate.corr_partition ~exact_counts:true missing ~attrs:[ "t" ] ~n:5 ()
      in
      let set = Pc_set.make pcs in
      let n = float_of_int (Pc_data.Relation.cardinality missing) in
      match Bounds.bound set (Q.count ()) with
      | Bounds.Range r ->
          Float.abs (r.Range.lo -. n) < 1e-6 && Float.abs (r.Range.hi -. n) < 1e-6
      | _ -> false)

(* ------------------ noise preserves well-formedness ----------------- *)

let prop_noise_well_formed =
  QCheck.Test.make ~name:"corrupted PCs remain well-formed" ~count:100
    QCheck.(pair (int_bound 100_000) (float_bound_inclusive 3.))
    (fun (seed, scale) ->
      let rng = Pc_util.Rng.create seed in
      let pcs = List.init 5 (random_pc rng) in
      let noisy =
        Noise.corrupt_values rng ~sigma:[ ("v", scale *. 10.) ] pcs
        @ Noise.corrupt_values_systematic rng ~sigma:[ ("v", scale *. 10.) ] pcs
        @ Noise.corrupt_values_relative rng ~attrs:[ "v" ] ~scale pcs
      in
      List.for_all
        (fun (pc : Pc.t) ->
          List.for_all
            (fun (_, iv) -> I.lo_float iv <= I.hi_float iv)
            pc.Pc.values
          && pc.Pc.freq_lo <= pc.Pc.freq_hi)
        noisy)

let () =
  Alcotest.run "pc_laws"
    [
      ( "algebraic laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_refinement;
            prop_pushdown_monotone;
            prop_frequency_scaling;
            prop_split_never_widens;
            prop_cells_partition;
            prop_cell_active_sets_correct;
            prop_milp_duality;
            prop_bounds_strategy_independent;
            prop_earlystop_sound_loosening;
            prop_exact_counts_sound;
            prop_exact_counts_pin_count;
            prop_noise_well_formed;
          ] );
    ]
