open Pc_core
module B = Pc_budget.Budget
module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module Q = Pc_query.Query
module R = Pc_util.Rng

let tc = Alcotest.test_case
let mk ?name pred values freq = Pc.make ?name ~pred ~values ~freq ()

(* -------------------------- budget mechanics ------------------------- *)

let test_take_caps () =
  let b = B.start (B.spec ~cells:2 ()) in
  Alcotest.(check bool) "first cell" true (B.take_cell b);
  Alcotest.(check bool) "second cell" true (B.take_cell b);
  Alcotest.(check bool) "third cell refused" false (B.take_cell b);
  Alcotest.(check int) "counted up to the cap" 2 (B.usage b).B.cells;
  (* uncapped resources never refuse *)
  Alcotest.(check bool) "uncapped sat" true (B.take_sat b);
  Alcotest.(check bool) "uncapped node" true (B.take_node b)

let test_zero_timeout_expired () =
  let b = B.start (B.spec ~timeout:0. ()) in
  Alcotest.(check bool) "immediately out of time" true (B.out_of_time b);
  Alcotest.(check bool) "dead" true (B.is_dead b);
  Alcotest.check_raises "check raises" (B.Exhausted B.Deadline) (fun () ->
      B.check b);
  Alcotest.(check bool) "deadline recorded" true (B.usage b).B.deadline_hit

let test_iter_exhaustion_starves () =
  let b = B.start (B.spec ~iters:1 ()) in
  Alcotest.(check bool) "one pivot granted" true (B.take_iter b);
  Alcotest.(check bool) "second refused" false (B.take_iter b);
  (* the iteration pool is a starving resource: once drained, everything
     downstream is refused too *)
  Alcotest.(check bool) "budget dead" true (B.is_dead b);
  Alcotest.(check bool) "cells starve" false (B.take_cell b);
  Alcotest.(check bool) "dead resource reported" true
    ((B.usage b).B.dead = Some B.Iterations)

let test_unlimited_still_counts () =
  let b = B.unlimited () in
  for _ = 1 to 5 do
    Alcotest.(check bool) "cell granted" true (B.take_cell b)
  done;
  B.check b;
  Alcotest.(check int) "cells counted" 5 (B.usage b).B.cells;
  Alcotest.(check bool) "never dead" false (B.is_dead b)

let test_exhaust_marks_dead () =
  let b = B.unlimited () in
  B.exhaust b B.Cells;
  Alcotest.(check bool) "dead after exhaust" true (B.is_dead b);
  Alcotest.check_raises "check raises cells" (B.Exhausted B.Cells) (fun () ->
      B.check b)

(* ------------------- the paper's overlapping example ------------------ *)
(* t1: utc in [11,12), price in [0.99,129.99], 50..100 rows
   t2: utc in [11,13), price in [0.99,149.99], 75..125 rows
   Exact COUNT range is [75, 125]. *)

let t1 =
  mk ~name:"t1"
    [ Atom.Num_range ("utc", I.make_exn (I.Closed 11.) (I.Open 12.)) ]
    [ ("price", I.closed 0.99 129.99) ]
    (50, 100)

let t2 =
  mk ~name:"t2"
    [ Atom.Num_range ("utc", I.make_exn (I.Closed 11.) (I.Open 13.)) ]
    [ ("price", I.closed 0.99 149.99) ]
    (75, 125)

let overlapping = Pc_set.make [ t1; t2 ]
let count = Q.count ()

let range_of = function
  | Bounds.Range r -> r
  | Bounds.Empty -> Alcotest.fail "unexpected Empty"
  | Bounds.Infeasible -> Alcotest.fail "unexpected Infeasible"

let exact_count = lazy (range_of (Bounds.bound overlapping count))

let check_contains_exact (d : Range.t) =
  let e = Lazy.force exact_count in
  Alcotest.(check bool) "degraded lo below exact lo" true
    (d.Range.lo <= e.Range.lo +. 1e-6);
  Alcotest.(check bool) "degraded hi above exact hi" true
    (d.Range.hi >= e.Range.hi -. 1e-6)

let test_unbudgeted_exact () =
  let o = Bounds.bound_budgeted overlapping count in
  Alcotest.(check string) "provenance" "exact"
    (Bounds.provenance_name o.Bounds.stats.Bounds.provenance);
  let r = range_of o.Bounds.answer in
  Alcotest.(check (float 1e-6)) "lo" 75. r.Range.lo;
  Alcotest.(check (float 1e-6)) "hi" 125. r.Range.hi;
  Alcotest.(check bool) "cells were charged" true (o.Bounds.stats.Bounds.cells > 0)

let test_cell_cap_steps_to_trivial () =
  let b = B.start (B.spec ~cells:1 ()) in
  let o = Bounds.bound_budgeted ~budget:b overlapping count in
  Alcotest.(check bool) "trivial rung" true
    (o.Bounds.stats.Bounds.provenance = Bounds.Trivial);
  let r = range_of o.Bounds.answer in
  check_contains_exact r;
  (* frequency-caps floor: lo = max kl, hi = sum of ku *)
  Alcotest.(check (float 1e-6)) "floor lo" 75. r.Range.lo;
  Alcotest.(check (float 1e-6)) "floor hi" 225. r.Range.hi;
  Alcotest.(check bool) "floor is not claimed tight" false
    (r.Range.lo_exact || r.Range.hi_exact)

let test_zero_nodes_relaxed () =
  let b = B.start (B.spec ~nodes:0 ()) in
  let o = Bounds.bound_budgeted ~budget:b overlapping count in
  Alcotest.(check bool) "relaxed rung" true
    (o.Bounds.stats.Bounds.provenance = Bounds.Relaxed);
  check_contains_exact (range_of o.Bounds.answer)

let test_zero_sat_early_stopped () =
  let b = B.start (B.spec ~sat_calls:0 ()) in
  let o = Bounds.bound_budgeted ~budget:b overlapping count in
  Alcotest.(check bool) "early-stopped rung" true
    (o.Bounds.stats.Bounds.provenance = Bounds.Early_stopped);
  Alcotest.(check bool) "admitted cells reported" true
    (o.Bounds.stats.Bounds.admitted_unchecked > 0);
  check_contains_exact (range_of o.Bounds.answer)

let test_expired_deadline_trivial () =
  let b = B.start (B.spec ~timeout:0. ()) in
  let o = Bounds.bound_budgeted ~budget:b overlapping count in
  Alcotest.(check bool) "trivial rung" true
    (o.Bounds.stats.Bounds.provenance = Bounds.Trivial);
  Alcotest.(check bool) "deadline reported" true
    o.Bounds.stats.Bounds.deadline_hit;
  check_contains_exact (range_of o.Bounds.answer)

(* 25 PCs that all cover utc in [24, 30]: [Naive] and [Early_stop 0]
   would enumerate 2^25 cells, past [Cells]' guard. (A disjoint set
   would take the greedy path and never decompose.) One row at utc 27
   holds every PC. *)
let guarded =
  Pc_set.make
    (List.init 25 (fun i ->
         let lo = float_of_int i in
         mk ~name:(Printf.sprintf "g%d" i)
           [ Atom.between "utc" lo (lo +. 30.) ]
           [ ("price", I.closed 0. 100.) ]
           (1, 10)))

let test_guard_steps_to_trivial strategy () =
  let schema =
    Pc_data.Schema.of_names
      [ ("utc", Pc_data.Schema.Numeric); ("price", Pc_data.Schema.Numeric) ]
  in
  let instance = Pc_data.Relation.create schema [ [| Pc_data.Value.Num 27.; Num 50. |] ] in
  Alcotest.(check bool) "the instance holds every PC" true (Pc_set.holds instance guarded);
  let truth = Option.get (Q.eval instance count) in
  Pc_obs.Trace.set_enabled true;
  Pc_obs.Trace.reset ();
  let opts = { Bounds.default_opts with Bounds.strategy } in
  let o = Bounds.bound_budgeted ~opts guarded count in
  let causes =
    List.filter_map
      (fun (sp : Pc_obs.Trace.span) ->
        if sp.name = "rung.trivial" then List.assoc_opt "cause" sp.attrs else None)
      (Pc_obs.Trace.spans ())
  in
  Pc_obs.Trace.set_enabled false;
  Alcotest.(check (list string)) "trivial rung's cause" [ "enumeration-guard" ] causes;
  Alcotest.(check (list string)) "rungs" [ "exact"; "trivial" ]
    (List.map Bounds.provenance_name o.Bounds.stats.Bounds.rungs);
  Alcotest.(check bool) "the range contains the truth" true
    (Range.contains (range_of o.Bounds.answer) truth)

let test_crushed_never_raises_any_agg () =
  let queries =
    [
      Q.count ();
      Q.count ~where_:[ Atom.Num_range ("utc", I.closed 11. 11.5) ] ();
      Q.sum "price";
      Q.avg "price";
      Q.min_ "price";
      Q.max_ "price";
    ]
  in
  let specs =
    [
      B.spec ~cells:1 ();
      B.spec ~nodes:0 ();
      B.spec ~sat_calls:0 ();
      B.spec ~iters:1 ();
      B.spec ~timeout:0. ();
      B.spec ~timeout:0. ~cells:1 ~sat_calls:0 ~nodes:0 ~iters:1 ();
    ]
  in
  List.iter
    (fun q ->
      List.iter
        (fun spec ->
          let b = B.start spec in
          match (Bounds.bound_budgeted ~budget:b overlapping q).Bounds.answer with
          | Bounds.Range _ | Bounds.Empty -> ()
          | Bounds.Infeasible ->
              Alcotest.fail "crushed budget must not invent infeasibility")
        specs)
    queries

let test_audit_passes () =
  let schema =
    Pc_data.Schema.of_names
      [ ("utc", Pc_data.Schema.Numeric); ("price", Pc_data.Schema.Numeric) ]
  in
  let rng = R.create 7 in
  List.iter
    (fun q ->
      match Instance.audit rng overlapping ~schema q with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ Q.count (); Q.sum "price"; Q.max_ "price" ]

(* ------------------------------ joins -------------------------------- *)

let test_join_bound_degrades_soundly () =
  (* overlapping predicates per table, so the per-table bounds go through
     the MILP pipeline (a disjoint set would take the budget-free greedy
     path and legitimately stay Exact) *)
  let overlapping_set name lo k =
    Pc_set.make
      [
        mk ~name:(name ^ "0")
          [ Atom.Num_range ("a", I.closed lo (lo +. 10.)) ]
          [ ("k", I.closed 0. 10.) ]
          (0, k);
        mk ~name:(name ^ "1")
          [ Atom.Num_range ("a", I.closed (lo +. 5.) (lo +. 15.)) ]
          [ ("k", I.closed 0. 10.) ]
          (0, k - 1);
      ]
  in
  let set_r = overlapping_set "r" 0. 5 in
  let set_s = overlapping_set "s" 0. 7 in
  let tables =
    [
      Pc_join.Join_bound.table ~name:"r" ~join_attrs:[ "k" ] set_r;
      Pc_join.Join_bound.table ~name:"s" ~join_attrs:[ "k" ] set_s;
    ]
  in
  let exact = Pc_join.Join_bound.count_bound tables in
  let b = B.start (B.spec ~timeout:0. ~cells:1 ~nodes:0 ~iters:0 ()) in
  let d = Pc_join.Join_bound.count_bound_budgeted ~budget:b tables in
  Alcotest.(check bool) "degraded value still an upper bound" true
    (d.Pc_join.Join_bound.value >= exact -. 1e-6);
  Alcotest.(check bool) "degradation reported" true
    (Bounds.provenance_order d.Pc_join.Join_bound.provenance > 0)

(* ---------------- qcheck: ladder containment property ----------------- *)
(* Satellite: for random PC sets, random queries and deliberately crushed
   budgets, the degraded answer (a) never raises and (b) only loosens the
   exact answer — its range contains the exact range, and it never turns a
   feasible instance infeasible or a non-empty aggregate empty. *)

let random_pc rng i =
  let pred =
    if R.int rng 4 = 0 then Pred.tt
    else
      let lo = float_of_int (R.int rng 10) in
      let w = float_of_int (1 + R.int rng 10) in
      [ Atom.Num_range ("x", I.closed lo (lo +. w)) ]
  in
  let values =
    if R.int rng 4 = 0 then []
    else
      let vlo = float_of_int (R.int rng 20 - 10) in
      let vw = float_of_int (R.int rng 15) in
      [ ("v", I.closed vlo (vlo +. vw)) ]
  in
  let ku = R.int rng 8 in
  let kl = if R.int rng 3 = 0 then min ku (R.int rng 4) else 0 in
  mk ~name:(Printf.sprintf "p%d" i) pred values (kl, ku)

let random_set rng = Pc_set.make (List.init (2 + R.int rng 3) (random_pc rng))

let random_query rng =
  let where_ =
    if R.int rng 2 = 0 then Pred.tt
    else
      let lo = float_of_int (R.int rng 12) in
      let w = float_of_int (1 + R.int rng 8) in
      [ Atom.Num_range ("x", I.closed lo (lo +. w)) ]
  in
  match R.int rng 5 with
  | 0 -> Q.count ~where_ ()
  | 1 -> Q.sum ~where_ "v"
  | 2 -> Q.avg ~where_ "v"
  | 3 -> Q.min_ ~where_ "v"
  | _ -> Q.max_ ~where_ "v"

(* [a <= b] up to a relative tolerance, infinity-safe. *)
let le_tol a b =
  a <= b
  || Float.is_finite a && Float.is_finite b
     && a -. b <= 1e-6 *. Float.max 1. (Float.abs b)

let sound ~exact ~degraded =
  match (exact, degraded) with
  | Bounds.Infeasible, _ ->
      (* no consistent instance exists: any claim is vacuously sound *)
      true
  | Bounds.Empty, (Bounds.Empty | Bounds.Range _) -> true
  | Bounds.Empty, Bounds.Infeasible -> false
  | Bounds.Range r, Bounds.Range d ->
      le_tol d.Range.lo r.Range.lo && le_tol r.Range.hi d.Range.hi
  | Bounds.Range _, (Bounds.Empty | Bounds.Infeasible) -> false

let answer_to_string = function
  | Bounds.Range r -> Range.to_string r
  | Bounds.Empty -> "empty"
  | Bounds.Infeasible -> "infeasible"

let crushed_specs =
  [
    ("cells=1", B.spec ~cells:1 ());
    ("nodes=0", B.spec ~nodes:0 ());
    ("sat=0", B.spec ~sat_calls:0 ());
    ("iters=5", B.spec ~iters:5 ());
    ("timeout=1ms", B.spec ~timeout:0.001 ());
    ("all-crushed", B.spec ~timeout:0. ~cells:1 ~sat_calls:0 ~nodes:0 ~iters:1 ());
  ]

let prop_ladder_containment =
  QCheck.Test.make ~name:"every ladder rung contains the exact range"
    ~count:250 QCheck.small_int (fun seed ->
      let rng = R.create (seed + 31) in
      let set = random_set rng in
      let query = random_query rng in
      let exact = Bounds.bound set query in
      List.for_all
        (fun (label, spec) ->
          let b = B.start spec in
          let degraded = (Bounds.bound_budgeted ~budget:b set query).Bounds.answer in
          sound ~exact ~degraded
          || QCheck.Test.fail_reportf
               "budget %s unsound on %s: exact %s, degraded %s" label
               (Q.to_string query) (answer_to_string exact)
               (answer_to_string degraded))
        crushed_specs)

let prop_provenance_exact_means_identical =
  (* When a budgeted run reports Exact, the budget never intervened, so
     the answer must coincide with the unbudgeted one. *)
  QCheck.Test.make ~name:"Exact provenance implies the unbudgeted answer"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = R.create (seed + 97) in
      let set = random_set rng in
      let query = random_query rng in
      let exact = Bounds.bound set query in
      List.for_all
        (fun (_, spec) ->
          let b = B.start spec in
          let o = Bounds.bound_budgeted ~budget:b set query in
          o.Bounds.stats.Bounds.provenance <> Bounds.Exact
          ||
          match (exact, o.Bounds.answer) with
          | Bounds.Empty, Bounds.Empty | Bounds.Infeasible, Bounds.Infeasible
            ->
              true
          | Bounds.Range r, Bounds.Range d ->
              let eq a b = a = b || Float.abs (a -. b) <= 1e-6 in
              eq r.Range.lo d.Range.lo && eq r.Range.hi d.Range.hi
          | _ -> false)
        crushed_specs)

let () =
  Alcotest.run "pc_budget"
    [
      ( "budget",
        [
          tc "take caps" `Quick test_take_caps;
          tc "zero timeout expired" `Quick test_zero_timeout_expired;
          tc "iteration pool starves" `Quick test_iter_exhaustion_starves;
          tc "unlimited still counts" `Quick test_unlimited_still_counts;
          tc "exhaust marks dead" `Quick test_exhaust_marks_dead;
        ] );
      ( "ladder",
        [
          tc "unbudgeted is exact" `Quick test_unbudgeted_exact;
          tc "cell cap -> trivial" `Quick test_cell_cap_steps_to_trivial;
          tc "zero nodes -> relaxed" `Quick test_zero_nodes_relaxed;
          tc "zero sat -> early stop" `Quick test_zero_sat_early_stopped;
          tc "expired deadline -> trivial" `Quick test_expired_deadline_trivial;
          tc "naive past the guard -> trivial" `Quick
            (test_guard_steps_to_trivial Cells.Naive);
          tc "early stop 0 past the guard -> trivial" `Quick
            (test_guard_steps_to_trivial (Cells.Early_stop 0));
          tc "crushed budgets never raise" `Quick test_crushed_never_raises_any_agg;
          tc "witness audit" `Quick test_audit_passes;
          tc "join bound degrades soundly" `Quick test_join_bound_degrades_soundly;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_ladder_containment;
          QCheck_alcotest.to_alcotest prop_provenance_exact_means_identical;
        ] );
    ]
