open Pc_core
module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module V = Pc_data.Value
module Q = Pc_query.Query

let tc = Alcotest.test_case
let check_float = Alcotest.(check (float 1e-4))

let schema =
  Pc_data.Schema.of_names
    [
      ("utc", Pc_data.Schema.Numeric);
      ("branch", Pc_data.Schema.Categorical);
      ("price", Pc_data.Schema.Numeric);
    ]

let row utc branch price = [| V.Num utc; V.Str branch; V.Num price |]

let mk ?name pred values freq = Pc.make ?name ~pred ~values ~freq ()

(* ----------------------------- Pc ---------------------------------- *)

let test_pc_validation () =
  Alcotest.check_raises "kl > ku" (Invalid_argument "Pc.make: kl > ku") (fun () ->
      ignore (mk Pred.tt [] (5, 2)));
  Alcotest.check_raises "negative kl"
    (Invalid_argument "Pc.make: negative frequency lower bound") (fun () ->
      ignore (mk Pred.tt [] (-1, 2)));
  Alcotest.check_raises "duplicate values"
    (Invalid_argument "Pc.make: duplicate value-constraint attribute") (fun () ->
      ignore (mk Pred.tt [ ("p", I.closed 0. 1.); ("p", I.closed 0. 2.) ] (0, 2)))

let chicago_pc =
  mk ~name:"c1"
    [ Atom.cat_eq "branch" "Chicago" ]
    [ ("price", I.closed 0. 149.99) ]
    (0, 5)

let test_pc_holds () =
  let ok =
    Pc_data.Relation.create schema
      [ row 1. "Chicago" 100.; row 2. "Chicago" 10.; row 3. "NY" 9999. ]
  in
  Alcotest.(check bool) "holds" true (Pc.holds ok chicago_pc);
  let too_many =
    Pc_data.Relation.create schema
      (List.init 6 (fun i -> row (float_of_int i) "Chicago" 1.))
  in
  Alcotest.(check bool) "frequency violated" false (Pc.holds too_many chicago_pc);
  let bad_value =
    Pc_data.Relation.create schema [ row 1. "Chicago" 200. ]
  in
  Alcotest.(check bool) "value violated" false (Pc.holds bad_value chicago_pc);
  Alcotest.(check int) "one violation reported" 1
    (List.length (Pc.violations bad_value chicago_pc))

let test_pc_value_interval () =
  Alcotest.(check bool) "constrained" true
    (I.equal (Pc.value_interval chicago_pc "price") (I.closed 0. 149.99));
  Alcotest.(check bool) "unconstrained is full" true
    (I.equal (Pc.value_interval chicago_pc "utc") I.full)

(* --------------------------- Pc_set -------------------------------- *)

let test_set_closure_disjoint () =
  let ny =
    mk ~name:"c3"
      [ Atom.cat_eq "branch" "New York" ]
      [ ("price", I.closed 0. 100.) ]
      (0, 10)
  in
  let set = Pc_set.make [ chicago_pc; ny ] in
  Alcotest.(check bool) "disjoint" true (Pc_set.is_disjoint set);
  let rel = Pc_data.Relation.create schema [ row 1. "Chicago" 1.; row 2. "New York" 2. ] in
  Alcotest.(check bool) "closed over" true (Pc_set.closed_over rel set);
  let rel2 = Pc_data.Relation.create schema [ row 1. "Trenton" 1. ] in
  Alcotest.(check bool) "not closed" false (Pc_set.closed_over rel2 set);
  let overlap =
    mk ~name:"c2" Pred.tt [ ("price", I.closed 0. 149.99) ] (0, 100)
  in
  Alcotest.(check bool) "tautology overlaps" false
    (Pc_set.is_disjoint (Pc_set.make [ chicago_pc; overlap ]))

(* ---------------------------- Cells -------------------------------- *)

let t1 =
  mk ~name:"t1"
    [ Atom.Num_range ("utc", I.make_exn (I.Closed 11.) (I.Open 12.)) ]
    [ ("price", I.closed 0.99 129.99) ]
    (50, 100)

let t2_overlapping =
  mk ~name:"t2"
    [ Atom.Num_range ("utc", I.make_exn (I.Closed 11.) (I.Open 13.)) ]
    [ ("price", I.closed 0.99 149.99) ]
    (75, 125)

let overlapping_set = Pc_set.make [ t1; t2_overlapping ]

let test_cells_paper_example () =
  (* Section 4.4: 3 possible non-empty cells, c3 = t1 ∧ ¬t2 unsatisfiable *)
  let cells, stats = Cells.decompose ~strategy:Cells.Naive overlapping_set in
  Alcotest.(check int) "two satisfiable cells" 2 (List.length cells);
  Alcotest.(check int) "naive evaluates 2^n - 1 cells" 3 stats.Cells.sat_calls;
  Alcotest.(check bool) "c1 = {t1,t2}" true (List.mem [ 0; 1 ] cells);
  Alcotest.(check bool) "c2 = {t2}" true (List.mem [ 1 ] cells);
  Alcotest.(check bool) "c3 pruned" false (List.mem [ 0 ] cells)

let test_cells_strategies_agree () =
  let same_cells a b = List.sort compare a = List.sort compare b in
  let naive, _ = Cells.decompose ~strategy:Cells.Naive overlapping_set in
  let dfs, _ = Cells.decompose ~strategy:Cells.Dfs overlapping_set in
  let rewrite, _ = Cells.decompose ~strategy:Cells.Dfs_rewrite overlapping_set in
  Alcotest.(check bool) "naive = dfs" true (same_cells naive dfs);
  Alcotest.(check bool) "dfs = rewrite" true (same_cells dfs rewrite)

let random_pc_set rng k =
  let pcs =
    List.init k (fun i ->
        let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:80. in
        let w = Pc_util.Rng.uniform rng ~lo:5. ~hi:40. in
        let lo2 = Pc_util.Rng.uniform rng ~lo:0. ~hi:80. in
        let w2 = Pc_util.Rng.uniform rng ~lo:5. ~hi:40. in
        mk
          ~name:(Printf.sprintf "p%d" i)
          [ Atom.between "utc" lo (lo +. w); Atom.between "price" lo2 (lo2 +. w2) ]
          [ ("price", I.closed lo2 (lo2 +. w2)) ]
          (0, 1 + Pc_util.Rng.int rng 20))
  in
  Pc_set.make pcs

let prop_strategies_agree =
  QCheck.Test.make ~name:"all strategies find the same cells" ~count:60
    QCheck.(int_bound 10_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let set = random_pc_set rng (2 + Pc_util.Rng.int rng 5) in
      let norm = List.sort compare in
      let naive = norm (fst (Cells.decompose ~strategy:Cells.Naive set)) in
      let dfs = norm (fst (Cells.decompose ~strategy:Cells.Dfs set)) in
      let rewrite = norm (fst (Cells.decompose ~strategy:Cells.Dfs_rewrite set)) in
      naive = dfs && dfs = rewrite)

let prop_early_stop_superset =
  QCheck.Test.make ~name:"early stop admits a superset of true cells" ~count:60
    QCheck.(int_bound 10_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let k = 3 + Pc_util.Rng.int rng 4 in
      let set = random_pc_set rng k in
      let norm = List.sort compare in
      let exact = norm (fst (Cells.decompose ~strategy:Cells.Dfs set)) in
      let approx =
        norm (fst (Cells.decompose ~strategy:(Cells.Early_stop (k / 2)) set))
      in
      List.for_all (fun c -> List.mem c approx) exact)

let prop_rewrite_fewer_calls =
  QCheck.Test.make ~name:"rewriting never uses more solver calls than DFS"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let set = random_pc_set rng (2 + Pc_util.Rng.int rng 6) in
      let _, s_dfs = Cells.decompose ~strategy:Cells.Dfs set in
      let _, s_rw = Cells.decompose ~strategy:Cells.Dfs_rewrite set in
      s_rw.Cells.sat_calls <= s_dfs.Cells.sat_calls)

(* --------------------------- Bounds -------------------------------- *)

let range_of = function
  | Bounds.Range r -> r
  | Bounds.Empty -> Alcotest.fail "unexpected Empty"
  | Bounds.Infeasible -> Alcotest.fail "unexpected Infeasible"

let test_paper_disjoint_example () =
  (* Section 4.4, disjoint case: [99.00, 27998.00] *)
  let t2 =
    mk ~name:"t2"
      [ Atom.Num_range ("utc", I.make_exn (I.Closed 12.) (I.Open 13.)) ]
      [ ("price", I.closed 0.99 149.99) ]
      (50, 100)
  in
  let set = Pc_set.make [ t1; t2 ] in
  Alcotest.(check bool) "disjoint" true (Pc_set.is_disjoint set);
  let r = range_of (Bounds.bound set (Q.sum "price")) in
  check_float "lo" 99.00 r.Range.lo;
  check_float "hi" 27998.00 r.Range.hi;
  (* greedy and general paths agree *)
  let opts = { Bounds.default_opts with Bounds.use_greedy = false } in
  let r' = range_of (Bounds.bound ~opts set (Q.sum "price")) in
  check_float "general lo" 99.00 r'.Range.lo;
  check_float "general hi" 27998.00 r'.Range.hi

let test_paper_overlapping_example () =
  (* Section 4.4, overlapping case: [74.25, 17748.75] *)
  let r = range_of (Bounds.bound overlapping_set (Q.sum "price")) in
  check_float "lo" 74.25 r.Range.lo;
  check_float "hi" 17748.75 r.Range.hi

let test_count_bounds () =
  let r = range_of (Bounds.bound overlapping_set (Q.count ())) in
  (* min rows: x1=50, x2=25 -> 75; max: x1=100, x2=25 -> 125 *)
  check_float "count lo" 75. r.Range.lo;
  check_float "count hi" 125. r.Range.hi

let test_query_pushdown () =
  (* query restricted to utc in [12, 13): only cell c2 (t2 alone) remains;
     t2's kl is not enforceable inside the window (rows may hide in
     [11,12)), so the count ranges from 0 to 125. *)
  let where_ = [ Atom.Num_range ("utc", I.make_exn (I.Closed 12.) (I.Open 13.)) ] in
  let r = range_of (Bounds.bound overlapping_set (Q.count ~where_ ())) in
  check_float "pushdown lo" 0. r.Range.lo;
  check_float "pushdown hi" 125. r.Range.hi;
  (* and values: SUM can reach 125 * 149.99 *)
  let r = range_of (Bounds.bound overlapping_set (Q.sum ~where_ "price")) in
  check_float "pushdown sum hi" (125. *. 149.99) r.Range.hi

let test_non_overlapping_query () =
  let where_ = [ Atom.between "utc" 50. 60. ] in
  let r = range_of (Bounds.bound overlapping_set (Q.sum ~where_ "price")) in
  check_float "no overlap lo" 0. r.Range.lo;
  check_float "no overlap hi" 0. r.Range.hi;
  Alcotest.(check bool) "avg empty" true
    (Bounds.bound overlapping_set (Q.avg ~where_ "price") = Bounds.Empty)

let test_infeasible () =
  (* frequency lower bound on an unsatisfiable predicate *)
  let impossible =
    mk
      [ Atom.between "utc" 0. 1.; Atom.between "utc" 5. 6. ]
      []
      (3, 10)
  in
  Alcotest.(check bool) "infeasible" true
    (Bounds.bound (Pc_set.make [ impossible ]) (Q.count ()) = Bounds.Infeasible);
  (* conflicting overlapping constraints: a sub-region must hold >= 10 rows
     but a covering constraint allows at most 2 *)
  let inner = mk [ Atom.between "utc" 0. 1. ] [] (10, 20) in
  let outer = mk [ Atom.between "utc" 0. 5. ] [] (0, 2) in
  Alcotest.(check bool) "conflicting freq" true
    (Bounds.bound (Pc_set.make [ inner; outer ]) (Q.count ()) = Bounds.Infeasible)

let test_conflict_most_restrictive () =
  (* Interacting constraints (paper §3.1 c1/c2 example): Chicago rows are
     capped at 5 and 149.99 by c1 even though c2 alone would allow 100. *)
  let c1 = chicago_pc in
  let c2 = mk ~name:"c2" Pred.tt [ ("price", I.closed 0. 200.) ] (0, 100) in
  let set = Pc_set.make [ c1; c2 ] in
  let where_ = [ Atom.cat_eq "branch" "Chicago" ] in
  let r = range_of (Bounds.bound set (Q.sum ~where_ "price")) in
  (* 5 rows at min(149.99, 200) *)
  check_float "restrictive hi" (5. *. 149.99) r.Range.hi

let test_min_max () =
  (match Bounds.bound overlapping_set (Q.max_ "price") with
  | Bounds.Range r ->
      check_float "max hi" 149.99 r.Range.hi;
      (* forced rows exist; adversary can keep everything at 0.99 *)
      check_float "max lo" 0.99 r.Range.lo
  | _ -> Alcotest.fail "expected range");
  match Bounds.bound overlapping_set (Q.min_ "price") with
  | Bounds.Range r -> check_float "min lo" 0.99 r.Range.lo
  | _ -> Alcotest.fail "expected range"

let test_avg () =
  match Bounds.bound overlapping_set (Q.avg "price") with
  | Bounds.Range r ->
      (* max avg: 50 rows at 129.99 + 75 at 149.99 / 125 ≈ 141.99;
         actually placing extra t2 rows at 149.99 dominates: with x1=50
         (at 129.99) forced and x2 up to 75 at 149.99: avg <= (50*129.99 +
         75*149.99)/125 = 141.99. *)
      Alcotest.(check bool) "avg hi sane" true
        (r.Range.hi <= 149.99 +. 1e-6 && r.Range.hi >= 141.98);
      Alcotest.(check bool) "avg lo sane" true
        (r.Range.lo >= 0.98 && r.Range.lo <= 1.0)
  | _ -> Alcotest.fail "expected range"

(* No instance reaches the crossing branch of [avg_range] (both
   bisections would have to misjudge reachability), so the helper is
   pinned directly: crossed searches answer their hull, both ends
   inexact, never a point narrower than either search. *)
let test_avg_range_crossed () =
  let r = Bounds.avg_range ~lo:5. ~hi:3. in
  check_float "hull lo" 3. r.Range.lo;
  check_float "hull hi" 5. r.Range.hi;
  Alcotest.(check bool) "lo inexact" false r.Range.lo_exact;
  Alcotest.(check bool) "hi inexact" false r.Range.hi_exact;
  let r = Bounds.avg_range ~lo:1. ~hi:4. in
  check_float "uncrossed lo" 1. r.Range.lo;
  check_float "uncrossed hi" 4. r.Range.hi;
  Alcotest.(check bool) "uncrossed inexact" false (r.Range.lo_exact || r.Range.hi_exact)

let test_bound_with_certain () =
  let certain =
    Pc_data.Relation.create schema [ row 11.5 "Chicago" 10.; row 12.5 "NY" 20. ]
  in
  let r =
    range_of (Bounds.bound_with_certain overlapping_set ~certain (Q.sum "price"))
  in
  check_float "shifted lo" (74.25 +. 30.) r.Range.lo;
  check_float "shifted hi" (17748.75 +. 30.) r.Range.hi;
  let r =
    range_of (Bounds.bound_with_certain overlapping_set ~certain (Q.count ()))
  in
  check_float "count shifted" 77. r.Range.lo;
  (* MAX with certain: the union max is at least the certain max *)
  let r =
    range_of (Bounds.bound_with_certain overlapping_set ~certain (Q.max_ "price"))
  in
  Alcotest.(check bool) "max lo >= certain max" true (r.Range.lo >= 20. -. 1e-9);
  check_float "max hi" 149.99 r.Range.hi

let test_generate_corr_partition () =
  let rng = Pc_util.Rng.create 1 in
  let rows =
    List.init 500 (fun i ->
        let utc = float_of_int (i mod 50) in
        let price = (10. *. utc) +. Pc_util.Rng.uniform rng ~lo:0. ~hi:5. in
        row utc (if i mod 2 = 0 then "A" else "B") price)
  in
  let rel = Pc_data.Relation.create schema rows in
  let pcs = Generate.corr_partition rel ~attrs:[ "utc" ] ~n:10 () in
  let set = Pc_set.make pcs in
  Alcotest.(check bool) "holds on source" true (Pc_set.holds rel set);
  Alcotest.(check bool) "closed over source" true (Pc_set.closed_over rel set);
  Alcotest.(check bool) "disjoint" true (Pc_set.is_disjoint set);
  Alcotest.(check bool) "about 10 buckets" true
    (List.length pcs >= 8 && List.length pcs <= 12)

let test_generate_rand_pcs () =
  let rng = Pc_util.Rng.create 2 in
  (* prices -0. and 0. side by side: a range's minimum keeps the sign
     [Relation.min_max] gives *)
  let price i = if i = 7 then -0. else float_of_int ((i - 8) * 2) in
  let rows = List.init 200 (fun i -> row (float_of_int i) "A" (price i)) in
  let rel = Pc_data.Relation.create schema rows in
  let pcs = Generate.rand_pcs rng rel ~attrs:[ "utc" ] ~n:15 () in
  Alcotest.(check int) "count includes catch-all" 15 (List.length pcs);
  let set = Pc_set.make pcs in
  Alcotest.(check bool) "holds on source" true (Pc_set.holds rel set);
  Alcotest.(check bool) "closed (catch-all)" true (Pc_set.closed_over rel set);
  (* each PC's frequency cap and value ranges are those of the rows its
     predicate selects, bit for bit *)
  List.iter
    (fun (pc : Pc.t) ->
      let matching = Pc_data.Relation.filter (Pred.eval schema pc.Pc.pred) rel in
      Alcotest.(check int) pc.Pc.name (Pc_data.Relation.cardinality matching) pc.Pc.freq_hi;
      List.iter
        (fun (a, iv) ->
          let lo, hi = Option.get (Pc_data.Relation.min_max matching a) in
          Alcotest.(check bool) (pc.Pc.name ^ " " ^ a) true
            (Doubles.bit_equal lo (I.lo_float iv) && Doubles.bit_equal hi (I.hi_float iv)))
        pc.Pc.values)
    pcs

let test_generate_correlated_attrs () =
  let rng = Pc_util.Rng.create 3 in
  let rows =
    List.init 300 (fun i ->
        let utc = float_of_int i in
        (* price strongly correlated with utc, not with noise *)
        row utc (if i mod 3 = 0 then "X" else "Y") (utc +. Pc_util.Rng.uniform rng ~lo:0. ~hi:1.))
  in
  let rel = Pc_data.Relation.create schema rows in
  let top =
    Generate.correlated_attrs rel ~agg:"price" ~candidates:[ "utc"; "branch" ] ~k:1
  in
  Alcotest.(check (list string)) "utc most correlated" [ "utc" ] top

let test_advisor () =
  (* v is a pure function of t (plus tiny noise) and independent of a
     useless uniform attribute u: the advisor must pick t *)
  let adv_schema =
    Pc_data.Schema.of_names
      [
        ("t", Pc_data.Schema.Numeric);
        ("u", Pc_data.Schema.Numeric);
        ("v", Pc_data.Schema.Numeric);
      ]
  in
  let rng = Pc_util.Rng.create 5 in
  let rel =
    Pc_data.Relation.create adv_schema
      (List.init 600 (fun _ ->
           let t = Pc_util.Rng.uniform rng ~lo:0. ~hi:100. in
           [|
             V.Num t;
             V.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:100.);
             V.Num ((2. *. t) +. Pc_util.Rng.uniform rng ~lo:0. ~hi:1.);
           |]))
  in
  let queries =
    List.init 30 (fun i ->
        let lo = float_of_int (i mod 10) *. 8. in
        Q.sum ~where_:[ Atom.between "t" lo (lo +. 20.) ] "v")
  in
  let winner = Advisor.best ~max_attrs:1 rel ~candidates:[ "t"; "u" ] ~queries in
  Alcotest.(check (list string)) "picks the correlated attribute" [ "t" ] winner;
  let ranked = Advisor.rank ~max_attrs:2 rel ~candidates:[ "t"; "u" ] ~queries in
  Alcotest.(check int) "three scored subsets" 3 (List.length ranked);
  Alcotest.(check bool) "scores sorted ascending" true
    (let rec sorted = function
       | a :: (b :: _ as rest) ->
           a.Advisor.median_over_estimation <= b.Advisor.median_over_estimation
           && sorted rest
       | _ -> true
     in
     sorted ranked);
  Alcotest.(check bool) "no candidates rejected" true
    (try
       ignore (Advisor.rank rel ~candidates:[] ~queries);
       false
     with Invalid_argument _ -> true)

let test_noise () =
  let rng = Pc_util.Rng.create 4 in
  let pcs = [ chicago_pc ] in
  let noisy = Noise.corrupt_values rng ~sigma:[ ("price", 10.) ] pcs in
  Alcotest.(check int) "same count" 1 (List.length noisy);
  let pc = List.hd noisy in
  Alcotest.(check bool) "interval still valid" true
    (I.lo_float (Pc.value_interval pc "price") <= I.hi_float (Pc.value_interval pc "price"));
  (* zero noise is identity *)
  let same = Noise.corrupt_values rng ~sigma:[ ("price", 0.) ] pcs in
  Alcotest.(check bool) "zero noise unchanged" true
    (I.equal
       (Pc.value_interval (List.hd same) "price")
       (Pc.value_interval chicago_pc "price"))

(* ------------------- end-to-end soundness property ------------------ *)

(* Build a random "missing" relation, summarize it with PCs that hold by
   construction, fire random queries, and check the hard range contains
   the true answer. This is the paper's central guarantee. *)

let sound_schema =
  Pc_data.Schema.of_names
    [ ("t", Pc_data.Schema.Numeric); ("v", Pc_data.Schema.Numeric) ]

let random_missing_relation rng n =
  let rows =
    List.init n (fun _ ->
        let t = Pc_util.Rng.uniform rng ~lo:0. ~hi:100. in
        let v =
          match Pc_util.Rng.int rng 3 with
          | 0 -> Pc_util.Rng.uniform rng ~lo:(-50.) ~hi:50.
          | 1 -> t *. 2.
          | _ -> Pc_util.Rng.pareto rng ~scale:1. ~shape:1.5
        in
        [| V.Num t; V.Num v |])
  in
  Pc_data.Relation.create sound_schema rows

let random_query rng =
  let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:90. in
  let w = Pc_util.Rng.uniform rng ~lo:5. ~hi:50. in
  let where_ = [ Atom.between "t" lo (lo +. w) ] in
  match Pc_util.Rng.int rng 5 with
  | 0 -> Q.count ~where_ ()
  | 1 -> Q.sum ~where_ "v"
  | 2 -> Q.avg ~where_ "v"
  | 3 -> Q.min_ ~where_ "v"
  | _ -> Q.max_ ~where_ "v"

let soundness_check ~make_pcs seed =
  let rng = Pc_util.Rng.create seed in
  let missing = random_missing_relation rng (30 + Pc_util.Rng.int rng 100) in
  let pcs = make_pcs rng missing in
  let set = Pc_set.make pcs in
  if not (Pc_set.holds missing set) then
    QCheck.Test.fail_report "generated PCs do not hold";
  let query = random_query rng in
  let truth = Q.eval missing query in
  match (Bounds.bound set query, truth) with
  | Bounds.Infeasible, _ -> QCheck.Test.fail_report "infeasible on satisfiable data"
  | Bounds.Empty, None -> true
  | Bounds.Empty, Some v ->
      QCheck.Test.fail_reportf "Empty but truth = %g (%s)" v (Q.to_string query)
  | Bounds.Range _, None -> true (* a wider range than needed is sound *)
  | Bounds.Range r, Some v ->
      if Range.contains r v then true
      else
        QCheck.Test.fail_reportf "range %s misses truth %g for %s"
          (Range.to_string r) v (Q.to_string query)

let prop_sound_corr =
  QCheck.Test.make ~name:"bounds contain truth (Corr-PC partitions)" ~count:120
    QCheck.(int_bound 100_000)
    (soundness_check ~make_pcs:(fun _rng missing ->
         Generate.corr_partition missing ~attrs:[ "t" ] ~n:8 ()))

let prop_sound_rand =
  QCheck.Test.make ~name:"bounds contain truth (random overlapping PCs)" ~count:120
    QCheck.(int_bound 100_000)
    (soundness_check ~make_pcs:(fun rng missing ->
         Generate.rand_pcs rng missing ~attrs:[ "t" ] ~n:7 ()))

let prop_greedy_matches_general =
  QCheck.Test.make ~name:"greedy equals general on disjoint sets" ~count:60
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let missing = random_missing_relation rng 60 in
      let pcs = Generate.corr_partition missing ~attrs:[ "t" ] ~n:6 () in
      let set = Pc_set.make pcs in
      let query = random_query rng in
      let greedy = Bounds.bound set query in
      let general =
        Bounds.bound
          ~opts:{ Bounds.default_opts with Bounds.use_greedy = false }
          set query
      in
      match (greedy, general) with
      | Bounds.Range a, Bounds.Range b ->
          Float.abs (a.Range.lo -. b.Range.lo) < 1e-3 *. Float.max 1. (Float.abs b.Range.lo)
          && Float.abs (a.Range.hi -. b.Range.hi) < 1e-3 *. Float.max 1. (Float.abs b.Range.hi)
      | Bounds.Empty, Bounds.Empty -> true
      | Bounds.Infeasible, Bounds.Infeasible -> true
      | _, _ -> false)

let prop_combined_sound =
  (* bound_with_certain must contain the full-relation truth *)
  QCheck.Test.make ~name:"combined bounds contain the full truth" ~count:120
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let full = random_missing_relation rng (60 + Pc_util.Rng.int rng 120) in
      let split =
        Pc_synth.Missing.top_values full ~attr:"v"
          ~fraction:(Pc_util.Rng.uniform rng ~lo:0.2 ~hi:0.8)
      in
      let observed = split.Pc_synth.Missing.observed in
      let missing = split.Pc_synth.Missing.missing in
      if Pc_data.Relation.is_empty missing then true
      else begin
        let set =
          Pc_set.make (Generate.corr_partition missing ~attrs:[ "t" ] ~n:6 ())
        in
        let query = random_query rng in
        match
          (Bounds.bound_with_certain set ~certain:observed query, Q.eval full query)
        with
        | Bounds.Infeasible, _ -> false
        | Bounds.Empty, None -> true
        | Bounds.Empty, Some _ -> false
        | Bounds.Range _, None -> true
        | Bounds.Range r, Some truth -> Range.contains r truth
      end)

let group_schema =
  Pc_data.Schema.of_names
    [
      ("t", Pc_data.Schema.Numeric);
      ("g", Pc_data.Schema.Categorical);
      ("v", Pc_data.Schema.Numeric);
    ]

let prop_group_by_sound =
  (* each per-group range contains the per-group truth of the full data *)
  QCheck.Test.make ~name:"group-by ranges contain per-group truths" ~count:80
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let groups = [| "a"; "b"; "c" |] in
      let full =
        Pc_data.Relation.create group_schema
          (List.init (60 + Pc_util.Rng.int rng 120) (fun _ ->
               [|
                 V.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:100.);
                 V.Str groups.(Pc_util.Rng.int rng 3);
                 V.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:50.);
               |]))
      in
      let split = Pc_synth.Missing.top_values full ~attr:"v" ~fraction:0.5 in
      let observed = split.Pc_synth.Missing.observed in
      let missing = split.Pc_synth.Missing.missing in
      let set =
        Pc_set.make (Generate.corr_partition missing ~attrs:[ "g" ] ~n:3 ())
      in
      let query = Q.sum "v" in
      let result = Group_by.bound set ~certain:observed ~by:"g" query in
      List.for_all
        (fun (key, answer) ->
          let key_s = Pc_data.Value.as_str key in
          let truth =
            Q.eval full
              { query with Q.where_ = [ Atom.cat_eq "g" key_s ] }
          in
          match (answer, truth) with
          | Bounds.Range r, Some v -> Range.contains r v
          | Bounds.Range _, None -> true
          | Bounds.Empty, None -> true
          | Bounds.Empty, Some v -> v = 0.
          | Bounds.Infeasible, _ -> false)
        result.Group_by.groups)

let prop_tightness_sum =
  (* On disjoint partitions derived from data with freq (0, count) and
     exact value ranges, the SUM upper bound is attained by the instance
     that pins every row at its bucket max — so the bound must not exceed
     count * max over buckets. This checks bounds are tight, not just
     sound. *)
  QCheck.Test.make ~name:"disjoint SUM bound is attainable" ~count:80
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let missing = random_missing_relation rng 50 in
      let pcs = Generate.corr_partition missing ~attrs:[ "t" ] ~n:5 () in
      let set = Pc_set.make pcs in
      let expected_hi =
        List.fold_left
          (fun acc (pc : Pc.t) ->
            let hi = I.hi_float (Pc.value_interval pc "v") in
            let contrib =
              if hi >= 0. then float_of_int pc.Pc.freq_hi *. hi else 0.
            in
            acc +. contrib)
          0. pcs
      in
      match Bounds.bound set (Q.sum "v") with
      | Bounds.Range r -> Float.abs (r.Range.hi -. expected_hi) < 1e-6 *. Float.max 1. expected_hi
      | _ -> false)

(* ------------------------- cell regions ----------------------------- *)

(* Random overlapping sets on a small grid, so endpoints coincide and
   their open/closed-ness decides. Predicates range over the numeric
   [t], [v] (also a value attribute, so [tighten] clips it) and [z] (the
   aggregate no PC's ν constrains) and the categorical [c]; each PC
   constrains a random subset of the value attributes [v], [w]. *)
module R = Pc_util.Rng

let region_iv rng =
  let a = float_of_int (R.int rng 8) and b = float_of_int (R.int rng 8) in
  let lo = Float.min a b and hi = Float.max a b in
  (* 0. also appears as -0.: equal as floats, told apart only by the bits
     a region's tie rules must carry through *)
  let signed x = if x = 0. && R.bool rng then -0. else x in
  let side x = if R.bool rng then I.Closed (signed x) else I.Open (signed x) in
  let lo = if R.int rng 5 = 0 then I.Neg_inf else side lo in
  let hi = if R.int rng 5 = 0 then I.Pos_inf else side hi in
  Option.value (I.make lo hi) ~default:(I.point a)

let region_atom rng =
  let word () = R.choose rng [| "a"; "b"; "c" |] in
  let words () = List.sort_uniq compare (List.init (1 + R.int rng 2) (fun _ -> word ())) in
  match R.int rng 7 with
  | 0 -> Atom.cat_eq "c" (word ())
  | 1 -> Atom.Cat_neq ("c", word ())
  | 2 -> Atom.Cat_in ("c", words ())
  | 3 -> Atom.Cat_not_in ("c", words ())
  | k -> Atom.Num_range ([| "t"; "v"; "z" |].(k - 4), region_iv rng)

let region_pred rng = List.init (R.int rng 3) (fun _ -> region_atom rng)

let region_set rng =
  Pc_set.make
    (List.init
       (2 + R.int rng 4)
       (fun i ->
         mk ~name:(Printf.sprintf "r%d" i) (region_pred rng)
           (List.filter (fun _ -> R.bool rng) [ "v"; "w" ]
           |> List.map (fun a -> (a, region_iv rng)))
           (0, 1 + R.int rng 5)))

let same_interval a b =
  let bits = Int64.bits_of_float in
  I.equal a b
  && bits (I.lo_float a) = bits (I.lo_float b)
  && bits (I.hi_float a) = bits (I.hi_float b)

(* The per-cell region build ([Cell_region.region], the oracle the
   decomposition's regions are checked against) against the per-(cell ×
   attribute) reference: the
   same cells are inhabitable, and each attribute's range, [z] included,
   is bit-identical. Checked on the set and on a [Pc_set.filter] subset
   (whose cached ν rows must follow its own indices). *)
let prop_region_matches_reference =
  QCheck.Test.make ~name:"one region per cell matches the per-attribute reference"
    ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R.create seed in
      let set = region_set rng in
      let qpred = region_pred rng in
      let tighten = R.bool rng in
      let strategy =
        R.choose rng [| Cells.Dfs_rewrite; Cells.Fdd; Cells.Early_stop (R.int rng 2) |]
      in
      let agrees set =
        let cells, _ = Cells.decompose ~strategy ~query_pred:qpred set in
        List.for_all
          (fun active ->
            let inhabitable = Cell_region.cell_inhabitable ~tighten set qpred active in
            match Cell_region.region ~tighten set qpred active with
            | None -> not inhabitable
            | Some r ->
                inhabitable
                && List.for_all
                     (fun a ->
                       match Cell_region.cell_value_interval ~tighten set qpred active a with
                       | Some iv -> same_interval iv (Cell_region.region_interval r a)
                       | None -> false)
                     [ "v"; "w"; "z"; "t" ])
          cells
      in
      let keep = Array.init (Pc_set.size set) (fun _ -> R.int rng 3 > 0) in
      agrees set && agrees (Pc_set.filter (Array.get keep) set))

(* The regions the decomposition builds on its way down
   ([Cells.regions], the bound path's) against the per-cell build
   ([Cell_region.region]): the same cells kept, in the same order, each
   column's interval bit for bit, and the same stats as [Cells.decompose]
   but the time. Every strategy, [tighten] on and off, half the runs
   under a SAT budget of 0 to 2 searches (which runs dry and admits the
   rest unchecked), with queries that also range over an attribute only
   a ν names, on the set and on a [Pc_set.filter] subset. *)
let prop_fused_regions_match_oracle =
  QCheck.Test.make ~name:"decomposition regions match the per-cell build" ~count:400
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R.create seed in
      let set = region_set rng in
      (* the query may also range over [w], which no predicate does *)
      let qpred =
        region_pred rng @ if R.bool rng then [ Atom.Num_range ("w", region_iv rng) ] else []
      in
      let tighten = R.bool rng in
      let strategy =
        R.choose rng
          [| Cells.Naive; Cells.Dfs; Cells.Dfs_rewrite; Cells.Early_stop (R.int rng 3); Cells.Fdd |]
      in
      let sat_calls = if R.bool rng then Some (R.int rng 3) else None in
      let budget () =
        Option.map (fun n -> Pc_budget.Budget.start (Pc_budget.Budget.spec ~sat_calls:n ())) sat_calls
      in
      let agrees set =
        let cells, stats = Cells.decompose ?budget:(budget ()) ~strategy ~query_pred:qpred set in
        let tbl = Pc_set.table set in
        let width = Array.length (Box_table.cols tbl) in
        let kept = ref [] in
        let fused_stats =
          Cells.regions ?budget:(budget ()) ~strategy ~tighten ~query:(Box_table.query tbl qpred)
            ~query_pred:qpred set (fun active values ->
              kept := (active, Array.init width (Box_table.get values)) :: !kept)
        in
        let expected =
          List.filter_map
            (fun active ->
              Option.map
                (fun r ->
                  ( active,
                    Array.map (Cell_region.region_interval r) (Box_table.cols tbl) ))
                (Cell_region.region ~tighten set qpred active))
            cells
        in
        { fused_stats with Cells.elapsed = 0. } = { stats with Cells.elapsed = 0. }
        && List.length expected = List.length !kept
        && List.for_all2
             (fun (a, r) (a', r') -> a = a' && Array.for_all2 same_interval r r')
             expected (List.rev !kept)
      in
      let keep = Array.init (Pc_set.size set) (fun _ -> R.int rng 3 > 0) in
      agrees set && agrees (Pc_set.filter (Array.get keep) set))

(* One diagram shared by two sets with the same predicates and
   different ν: each set's FDD regions are its own, also when the sets
   alternate, and a [map_freqs] set shares its parent's. *)
let test_shared_diagram_own_regions () =
  let pred lo hi = [ Atom.between "t" lo hi ] in
  let make v =
    Pc_set.make
      [
        mk ~name:"a" (pred 0. 10.) [ ("v", I.closed 0. v) ] (0, 5);
        mk ~name:"b" (pred 5. 15.) [ ("v", I.closed 1. (v +. 1.)) ] (0, 5);
        mk ~name:"c" (pred 8. 20.) [ ("v", I.closed (-1.) (2. *. v)) ] (0, 5);
      ]
  in
  let one = make 10. and two = make 100. in
  let fdd = Pc_predicate.Fdd.compile (Array.of_list (List.map (fun (pc : Pc.t) -> pc.Pc.pred) (Pc_set.pcs one))) in
  let qpred = [ Atom.between "t" 2. 18. ] in
  let check label set =
    let tbl = Pc_set.table set in
    let got = ref [] in
    ignore
      (Cells.regions ~strategy:Cells.Fdd ~fdd ~tighten:true ~query:(Box_table.query tbl qpred)
         ~query_pred:qpred set (fun active values ->
           got := (active, Box_table.get values (Box_table.col tbl "v")) :: !got));
    let got = List.rev !got in
    let cells, _ = Cells.decompose ~strategy:Cells.Dfs_rewrite ~query_pred:qpred set in
    Alcotest.(check int) (label ^ ": every cell kept") (List.length cells) (List.length got);
    List.iter2
      (fun active (active', v) ->
        Alcotest.(check (list int)) (label ^ ": same cell") active active';
        match Cell_region.region ~tighten:true set qpred active with
        | None -> Alcotest.fail (label ^ ": the oracle drops a kept cell")
        | Some r ->
            Alcotest.(check bool)
              (label ^ ": v's range is the set's own")
              true
              (same_interval (Cell_region.region_interval r "v") v))
      cells got
  in
  check "first" one;
  check "second" two;
  check "first again" one;
  check "map_freqs" (Pc_set.map_freqs (fun _ pc -> (0, pc.Pc.freq_hi + 1)) two)

module Box = Pc_predicate.Box

let box_of set i = Box.of_pred (Pc_set.get set i).Pc.pred

let box_meets set i atoms =
  match box_of set i with None -> false | Some b -> Option.is_some (Box.add_pred b atoms)

(* The flat table's overlap tests against the [Box.add_pred] folds they
   replace: query overlap (the pushdown, greedy and trivial filters) and
   pairwise disjointness, on the set and on a [Pc_set.filter] subset
   that shares its table. *)
let prop_flat_overlap_matches_box =
  QCheck.Test.make ~name:"flat overlap tests match Box.add_pred" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R.create seed in
      let set = region_set rng in
      let qpred = region_pred rng in
      let agrees set =
        let tbl = Pc_set.table set and rows = Pc_set.rows set in
        let q = Box_table.query tbl qpred in
        let idx = List.init (Pc_set.size set) Fun.id in
        List.for_all
          (fun i ->
            let boxed = Box_table.boxed tbl rows.(i) in
            boxed = Option.is_some (box_of set i)
            && ((not boxed) || Box_table.overlaps tbl q rows.(i) = box_meets set i qpred))
          idx
        && Pc_set.is_disjoint set
           = List.for_all
               (fun i ->
                 List.for_all
                   (fun j -> j <= i || not (box_meets set i (Pc_set.get set j).Pc.pred))
                   idx)
               idx
      in
      let keep = Array.init (Pc_set.size set) (fun _ -> R.int rng 3 > 0) in
      agrees set && agrees (Pc_set.filter (Array.get keep) set))

let same_answer a b =
  match (a, b) with
  | Bounds.Range a, Bounds.Range b ->
      Doubles.bit_equal a.Range.lo b.Range.lo
      && Doubles.bit_equal a.Range.hi b.Range.hi
      && a.Range.lo_exact = b.Range.lo_exact
      && a.Range.hi_exact = b.Range.hi_exact
  | a, b -> a = b

(* The greedy path's cells against the Box-based oracle, bit for bit,
   and [Bounds.bound]'s greedy answer against the answer from the
   oracle's cells. Sets are [region_set]s thinned to pairwise disjoint
   PCs, with random frequency lower bounds. *)
let prop_greedy_matches_box_oracle =
  QCheck.Test.make ~name:"greedy cells match the Box-based oracle" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R.create seed in
      let overlap (a : Pc.t) (b : Pc.t) =
        match Box.of_pred a.Pc.pred with
        | None -> false
        | Some box -> Option.is_some (Box.add_pred box b.Pc.pred)
      in
      let pcs =
        List.fold_left
          (fun kept (pc : Pc.t) ->
            if List.exists (overlap pc) kept then kept
            else
              kept
              @ [
                  mk ~name:pc.Pc.name pc.Pc.pred pc.Pc.values
                    (R.int rng 2, pc.Pc.freq_hi);
                ])
          []
          (Pc_set.pcs (region_set rng))
      in
      let set = Pc_set.make pcs in
      let where_ = region_pred rng in
      let query =
        R.choose rng
          [|
            Q.count ~where_ ();
            Q.sum ~where_ "v";
            Q.sum ~where_ "z";
            Q.avg ~where_ "w";
            Q.max_ ~where_ "v";
            Q.min_ ~where_ "t";
          |]
      in
      let opts = { Bounds.default_opts with Bounds.tighten = R.bool rng } in
      let same_cell (a : Bounds.Greedy.gcell) (b : Bounds.Greedy.gcell) =
        Doubles.bit_equal a.u b.u && Doubles.bit_equal a.l b.l && a.kl = b.kl && a.ku = b.ku
      in
      let oracle = Greedy_box.prepare ~opts set query in
      Pc_set.is_disjoint set
      && (match (Bounds.Greedy.prepare ~opts set query, oracle) with
         | Ok a, Ok b -> List.length a = List.length b && List.for_all2 same_cell a b
         | Error a, Error b -> a = b
         | _ -> false)
      && same_answer (Bounds.bound ~opts set query)
           (match oracle with
           | Error a -> a
           | Ok cells -> Bounds.Greedy.answer cells query ~c_count:0. ~c_sum:0.))

(* ------------------- frame DFS ≡ Box-based oracle ------------------- *)

(* [region_atom]s, with more of them per predicate so that some
   predicates are unsatisfiable, over 1 to 7 PCs. *)
let dfs_set rng =
  Pc_set.make
    (List.init
       (1 + R.int rng 7)
       (fun i ->
         mk ~name:(Printf.sprintf "d%d" i)
           (List.init (R.int rng 4) (fun _ -> region_atom rng))
           (List.filter (fun _ -> R.bool rng) [ "v"; "w" ]
           |> List.map (fun a -> (a, region_iv rng)))
           (0, 1 + R.int rng 5)))

(* A [region_pred] query, sometimes with atoms on attributes no PC
   mentions ([y] numeric, [e] categorical), which can empty it. *)
let dfs_query rng =
  region_pred rng
  @ List.init (R.int rng 3) (fun _ ->
        if R.bool rng then Atom.Num_range ("y", region_iv rng)
        else Atom.cat_eq "e" (R.choose rng [| "a"; "b" |]))

(* The frame DFS against the [Box]-based state it replaced: the same
   cells (active sets) in the same order, and the same stats (but
   [elapsed]), under [Dfs], [Dfs_rewrite] and [Early_stop k], with
   and without a SAT pool of 0 to 5 searches (admitted cells must match
   too), on the set and on a [Pc_set.filter] subset. *)
let prop_frame_dfs_matches_oracle =
  QCheck.Test.make ~name:"frame DFS matches the Box-based oracle" ~count:500
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R.create seed in
      let set = dfs_set rng in
      let query_pred = dfs_query rng in
      let strategy =
        match R.int rng 3 with
        | 0 -> Cells.Dfs
        | 1 -> Cells.Dfs_rewrite
        | _ -> Cells.Early_stop (R.int rng (Pc_set.size set + 2))
      in
      let pool = if R.bool rng then Some (R.int rng 6) else None in
      let budget () = Option.map (fun k -> Pc_budget.Budget.(start (spec ~sat_calls:k ()))) pool in
      let run f = match f () with r -> Ok r | exception e -> Error e in
      let agrees set =
        match
          ( run (fun () -> Cells.decompose ?budget:(budget ()) ~strategy ~query_pred set),
            run (fun () -> Dfs_box.decompose ?budget:(budget ()) ~strategy ~query_pred set) )
        with
        | Ok (cells, s), Ok (cells', s') ->
            (cells = cells'
            && s.Cells.sat_calls = s'.Cells.sat_calls
            && s.Cells.atom_ops = s'.Cells.atom_ops
            && s.Cells.n_cells = s'.Cells.n_cells
            && s.Cells.admitted_unchecked = s'.Cells.admitted_unchecked
            && s.Cells.witness_hits = s'.Cells.witness_hits)
            || QCheck.Test.fail_reportf
                 "%s: cells %d/%d, sat %d/%d, atoms %d/%d, admitted %d/%d, hits %d/%d"
                 (Cells.strategy_name strategy) s.Cells.n_cells s'.Cells.n_cells
                 s.Cells.sat_calls s'.Cells.sat_calls s.Cells.atom_ops s'.Cells.atom_ops
                 s.Cells.admitted_unchecked s'.Cells.admitted_unchecked s.Cells.witness_hits
                 s'.Cells.witness_hits
        | Error e, Error e' -> e = e'
        | r, r' ->
            let show = function Ok _ -> "ok" | Error e -> Printexc.to_string e in
            QCheck.Test.fail_reportf "%s: %s against %s" (Cells.strategy_name strategy) (show r)
              (show r')
      in
      let keep = Array.init (Pc_set.size set) (fun _ -> R.int rng 3 > 0) in
      agrees set && agrees (Pc_set.filter (Array.get keep) set))

(* A set whose predicates use [utc] as both kinds raises [Box]'s kind
   clash through the decomposition, under every strategy. *)
let test_decompose_kind_clash () =
  let set =
    Pc_set.make
      [
        mk ~name:"num" [ Atom.between "utc" 0. 10. ] [] (0, 5);
        mk ~name:"cat" [ Atom.cat_eq "utc" "noon" ] [] (0, 3);
      ]
  in
  List.iter
    (fun strategy ->
      Alcotest.check_raises (Cells.strategy_name strategy)
        (Invalid_argument "Box: attribute utc used as both kinds") (fun () ->
          ignore (Cells.decompose ~strategy set)))
    Cells.[ Naive; Dfs; Dfs_rewrite; Early_stop 1; Fdd ]

(* random overlapping one-attribute ranges, the decomposition worst case *)
let one_attr_pc_set rng k =
  let pcs =
    List.init k (fun i ->
        let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:80. in
        let w = Pc_util.Rng.uniform rng ~lo:10. ~hi:50. in
        Pc.make
          ~name:(Printf.sprintf "p%d" i)
          ~pred:[ Atom.between "x" lo (lo +. w) ]
          ~values:[ ("v", I.closed 0. 10.) ]
          ~freq:(0, 1 + Pc_util.Rng.int rng 9) ())
  in
  Pc_set.make pcs

let prop_incremental_matches_naive =
  (* n up to 10 keeps the Naive 2^n - 1 enumeration affordable while
     exercising deep incremental prefixes (box threading + witness
     reuse) against the ground truth *)
  QCheck.Test.make ~name:"incremental DFS = Naive cell set (n <= 10)"
    ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let set = one_attr_pc_set rng (2 + Pc_util.Rng.int rng 9) in
      let norm = List.sort compare in
      let naive = norm (fst (Cells.decompose ~strategy:Cells.Naive set)) in
      let dfs = norm (fst (Cells.decompose ~strategy:Cells.Dfs set)) in
      let rw = norm (fst (Cells.decompose ~strategy:Cells.Dfs_rewrite set)) in
      naive = dfs && naive = rw)

(* ---------------------- unsatisfiable predicates --------------------- *)

(* A predicate no row satisfies ([utc] in [0,1] and in [5,6]). *)
let unsat_pc kl =
  mk ~name:"never" [ Atom.between "utc" 0. 1.; Atom.between "utc" 5. 6. ] [] (kl, 10)

let disjoint_pcs =
  [
    mk ~name:"a" [ Atom.between "utc" 0. 10. ] [ ("price", I.closed 1. 5.) ] (1, 4);
    mk ~name:"b" [ Atom.between "utc" 20. 30. ] [ ("price", I.closed 2. 9.) ] (0, 3);
  ]

let general = { Bounds.default_opts with Bounds.use_greedy = false }
let starved () = Pc_budget.Budget.start (Pc_budget.Budget.spec ~cells:1 ())

let test_unsat_kl_infeasible () =
  let set = Pc_set.make (List.hd disjoint_pcs :: unsat_pc 2 :: List.tl disjoint_pcs) in
  Alcotest.(check bool) "greedy path applies" true (Pc_set.is_disjoint set);
  List.iter
    (fun (label, query) ->
      let infeasible a = Alcotest.(check bool) label true (a = Bounds.Infeasible) in
      infeasible (Bounds.bound set query);
      infeasible (Bounds.bound ~opts:general set query);
      (* a budget that would send the ladder to the trivial rung: the
         verdict comes first *)
      infeasible (Bounds.bound_budgeted ~opts:general ~budget:(starved ()) set query).Bounds.answer)
    [ ("count", Q.count ()); ("sum in window", Q.sum ~where_:[ Atom.between "utc" 2. 25. ] "price") ]

(* With kl = 0 the unsatisfiable PC changes no answer of the greedy and
   general paths. The trivial rung tests overlap by boxes only and keeps
   a PC without one, which can only loosen its range. *)
let test_unsat_kl0_skipped () =
  let base = Pc_set.make disjoint_pcs in
  let with_unsat = Pc_set.make (List.hd disjoint_pcs :: unsat_pc 0 :: List.tl disjoint_pcs) in
  List.iter
    (fun query ->
      let same label f = Alcotest.(check bool) label true (f with_unsat = f base) in
      same "greedy" (fun s -> Bounds.bound s query);
      same "general" (fun s -> Bounds.bound ~opts:general s query);
      let trivial s = Bounds.bound_budgeted ~opts:general ~budget:(starved ()) s query in
      let b = trivial base and u = trivial with_unsat in
      Alcotest.(check bool) "trivial rung" true
        (b.Bounds.stats.Bounds.provenance = Bounds.Trivial
        && u.Bounds.stats.Bounds.provenance = Bounds.Trivial);
      let r = range_of u.Bounds.answer and rb = range_of b.Bounds.answer in
      Alcotest.(check bool) "trivial rung only loosens" true
        (r.Range.lo <= rb.Range.lo && rb.Range.hi <= r.Range.hi))
    [ Q.count (); Q.sum "price"; Q.max_ ~where_:[ Atom.between "utc" 2. 25. ] "price" ]

(* The pushdown drops [b1] and [b2] from the middle of the set; the
   surviving PCs' boxes and ν rows must follow them to their new
   indices. [Fdd] skips the pushdown, so it answers on the unfiltered
   set. *)
let test_pushdown_middle_alignment () =
  let pcs =
    [
      mk ~name:"lo" [ Atom.between "utc" 0. 6. ] [ ("price", I.closed 1. 3.) ] (1, 4);
      mk ~name:"b1" [ Atom.between "utc" 50. 60. ] [ ("price", I.closed 100. 200.) ] (0, 9);
      mk ~name:"b2" [ Atom.between "utc" 70. 80. ] [ ("price", I.closed 300. 400.) ] (2, 7);
      mk ~name:"mid" [ Atom.between "utc" 4. 10. ] [ ("price", I.closed 2. 8.) ] (0, 5);
      mk ~name:"hi" [ Atom.between "utc" 8. 12.; Atom.between "price" 5. 7. ] [] (1, 2);
    ]
  in
  let set = Pc_set.make pcs in
  let where_ = [ Atom.between "utc" 3. 11. ] in
  List.iter
    (fun query ->
      let pushed = Bounds.bound ~opts:general set query in
      let unfiltered =
        Bounds.bound ~opts:{ general with Bounds.strategy = Cells.Fdd } set query
      in
      Alcotest.(check bool) (Q.to_string query) true (pushed = unfiltered))
    [ Q.count ~where_ (); Q.sum ~where_ "price"; Q.max_ ~where_ "price"; Q.avg ~where_ "price" ]

(* A query atom whose kind clashes with how the set's predicates use its
   attribute raises [Box]'s error through [Bounds.bound], on the greedy
   and the general path alike. *)
let test_kind_clash_raises () =
  let set =
    Pc_set.make
      [
        mk ~name:"chicago" [ Atom.cat_eq "branch" "Chicago" ] [] (0, 5);
        mk ~name:"ny" [ Atom.cat_eq "branch" "NY"; Atom.between "utc" 0. 10. ] [] (0, 3);
      ]
  in
  Alcotest.(check bool) "greedy path applies" true (Pc_set.is_disjoint set);
  List.iter
    (fun (opts, where_, attr) ->
      Alcotest.check_raises attr
        (Invalid_argument (Printf.sprintf "Box: attribute %s used as both kinds" attr))
        (fun () -> ignore (Bounds.bound ~opts set (Q.count ~where_ ()))))
    [
      (Bounds.default_opts, [ Atom.between "branch" 0. 1. ], "branch");
      (general, [ Atom.between "branch" 0. 1. ], "branch");
      (Bounds.default_opts, [ Atom.cat_eq "utc" "noon" ], "utc");
      (general, [ Atom.cat_eq "utc" "noon" ], "utc");
    ]

let () =
  Alcotest.run "pc_core"
    [
      ( "pc",
        [
          tc "validation" `Quick test_pc_validation;
          tc "holds/violations" `Quick test_pc_holds;
          tc "value intervals" `Quick test_pc_value_interval;
        ] );
      ("pc_set", [ tc "closure and disjointness" `Quick test_set_closure_disjoint ]);
      ( "cells",
        [
          tc "paper example" `Quick test_cells_paper_example;
          tc "strategies agree" `Quick test_cells_strategies_agree;
          QCheck_alcotest.to_alcotest prop_strategies_agree;
          QCheck_alcotest.to_alcotest prop_early_stop_superset;
          QCheck_alcotest.to_alcotest prop_rewrite_fewer_calls;
          QCheck_alcotest.to_alcotest prop_incremental_matches_naive;
          QCheck_alcotest.to_alcotest prop_frame_dfs_matches_oracle;
          tc "kind clash raises" `Quick test_decompose_kind_clash;
        ] );
      ( "bounds",
        [
          tc "paper disjoint example" `Quick test_paper_disjoint_example;
          tc "paper overlapping example" `Quick test_paper_overlapping_example;
          tc "count" `Quick test_count_bounds;
          tc "query pushdown" `Quick test_query_pushdown;
          tc "non-overlapping query" `Quick test_non_overlapping_query;
          tc "infeasible systems" `Quick test_infeasible;
          tc "most-restrictive reconciliation" `Quick test_conflict_most_restrictive;
          tc "min/max" `Quick test_min_max;
          tc "avg" `Quick test_avg;
          tc "avg crossed searches answer the hull" `Quick test_avg_range_crossed;
          tc "with certain partition" `Quick test_bound_with_certain;
          tc "unsatisfiable kl>0 is infeasible" `Quick test_unsat_kl_infeasible;
          tc "unsatisfiable kl=0 is skipped" `Quick test_unsat_kl0_skipped;
          tc "pushdown keeps indices aligned" `Quick test_pushdown_middle_alignment;
        ] );
      ( "regions",
        [
          QCheck_alcotest.to_alcotest prop_region_matches_reference;
          QCheck_alcotest.to_alcotest prop_fused_regions_match_oracle;
          tc "one diagram, two sets' regions" `Quick test_shared_diagram_own_regions;
          QCheck_alcotest.to_alcotest prop_flat_overlap_matches_box;
          QCheck_alcotest.to_alcotest prop_greedy_matches_box_oracle;
          tc "query kind clash raises" `Quick test_kind_clash_raises;
        ] );
      ( "generate",
        [
          tc "corr partition" `Quick test_generate_corr_partition;
          tc "rand pcs" `Quick test_generate_rand_pcs;
          tc "correlated attrs" `Quick test_generate_correlated_attrs;
        ] );
      ("advisor", [ tc "attribute selection" `Quick test_advisor ]);
      ("noise", [ tc "corruption" `Quick test_noise ]);
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_sound_corr;
          QCheck_alcotest.to_alcotest prop_sound_rand;
          QCheck_alcotest.to_alcotest prop_greedy_matches_general;
          QCheck_alcotest.to_alcotest prop_combined_sound;
          QCheck_alcotest.to_alcotest prop_group_by_sound;
          QCheck_alcotest.to_alcotest prop_tightness_sum;
        ] );
    ]
