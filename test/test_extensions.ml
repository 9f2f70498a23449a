(* Tests for the extension modules: GROUP-BY bounding, bound
   explanation, and the PC+sampling hybrid. *)

module Q = Pc_query.Query
module Atom = Pc_predicate.Atom
module I = Pc_interval.Interval
module V = Pc_data.Value
module Range = Pc_core.Range
open Pc_core

let tc = Alcotest.test_case
let check_float = Alcotest.(check (float 1e-6))

let schema =
  Pc_data.Schema.of_names
    [
      ("utc", Pc_data.Schema.Numeric);
      ("branch", Pc_data.Schema.Categorical);
      ("price", Pc_data.Schema.Numeric);
    ]

let row utc branch price = [| V.Num utc; V.Str branch; V.Num price |]

let mk ?name pred values freq = Pc.make ?name ~pred ~values ~freq ()

(* ----------------------------- group by ----------------------------- *)

let sales_pcs =
  Pc_set.make
    [
      mk ~name:"chi"
        [ Atom.cat_eq "branch" "Chicago" ]
        [ ("price", I.closed 0. 150.) ]
        (0, 5);
      mk ~name:"nyc"
        [ Atom.cat_eq "branch" "New York" ]
        [ ("price", I.closed 0. 100.) ]
        (0, 10);
    ]

let certain =
  Pc_data.Relation.create schema
    [ row 1. "Chicago" 20.; row 2. "Trenton" 30.; row 3. "Chicago" 10. ]

let test_group_by_keys () =
  let keys = Group_by.known_keys sales_pcs ~certain ~by:"branch" in
  Alcotest.(check (list string)) "keys from both sources"
    [ "Chicago"; "New York"; "Trenton" ] keys

let test_group_by_bound () =
  let result = Group_by.bound sales_pcs ~certain ~by:"branch" (Q.sum "price") in
  Alcotest.(check int) "three groups" 3 (List.length result.Group_by.groups);
  let get key = List.assoc (V.Str key) result.Group_by.groups in
  (match get "Chicago" with
  | Bounds.Range r ->
      check_float "chicago lo (certain only)" 30. r.Range.lo;
      check_float "chicago hi" (30. +. (5. *. 150.)) r.Range.hi
  | _ -> Alcotest.fail "chicago");
  (match get "Trenton" with
  | Bounds.Range r ->
      (* no constraint admits Trenton rows: the certain value is exact *)
      check_float "trenton exact lo" 30. r.Range.lo;
      check_float "trenton exact hi" 30. r.Range.hi
  | _ -> Alcotest.fail "trenton");
  (* the two PC predicates pin branch to known values: no residual *)
  Alcotest.(check bool) "no residual" true (result.Group_by.residual = None)

let test_group_by_residual () =
  (* a tautology constraint admits unseen branch values *)
  let open_set =
    Pc_set.make [ mk ~name:"any" [] [ ("price", I.closed 0. 50.) ] (0, 4) ]
  in
  let result = Group_by.bound open_set ~certain ~by:"branch" (Q.sum "price") in
  match result.Group_by.residual with
  | Some (Bounds.Range r) ->
      check_float "residual capacity" (4. *. 50.) r.Range.hi
  | _ -> Alcotest.fail "expected residual range"

let test_group_by_validation () =
  Alcotest.(check bool) "numeric group attr rejected" true
    (try
       ignore (Group_by.known_keys sales_pcs ~certain ~by:"utc");
       false
     with Invalid_argument _ -> true)

let test_group_by_consistency () =
  (* summing per-group COUNT upper bounds must dominate the global one *)
  let q = Q.count () in
  let result = Group_by.bound sales_pcs ~certain ~by:"branch" q in
  let group_hi_sum =
    List.fold_left
      (fun acc (_, a) ->
        match a with Bounds.Range r -> acc +. r.Range.hi | _ -> acc)
      0. result.Group_by.groups
  in
  match Bounds.bound_with_certain sales_pcs ~certain q with
  | Bounds.Range r ->
      Alcotest.(check bool) "groups cover the total" true
        (group_hi_sum >= r.Range.hi -. 1e-6)
  | _ -> Alcotest.fail "expected range"

(* ------------------------------ explain ----------------------------- *)

let test_explain_binding () =
  (* Chicago query: the chicago constraint is binding; relaxing it blows
     the bound up; the nyc constraint is irrelevant *)
  let q = Q.sum ~where_:[ Atom.cat_eq "branch" "Chicago" ] "price" in
  let report = Explain.leave_one_out sales_pcs q in
  let binding = Explain.binding report in
  Alcotest.(check int) "one binding constraint" 1 (List.length binding);
  let top = List.hd binding in
  Alcotest.(check string) "chicago binds" "chi" top.Explain.name;
  Alcotest.(check bool) "large widening" true (top.Explain.hi_widening > 1e6)

let test_explain_redundant () =
  (* add a redundant wider constraint over Chicago: relaxing either alone
     leaves the other binding -> finite widening *)
  let set =
    Pc_set.make
      [
        mk ~name:"tight"
          [ Atom.cat_eq "branch" "Chicago" ]
          [ ("price", I.closed 0. 100.) ]
          (0, 5);
        mk ~name:"loose"
          [ Atom.cat_eq "branch" "Chicago" ]
          [ ("price", I.closed 0. 200.) ]
          (0, 8);
      ]
  in
  let q = Q.sum ~where_:[ Atom.cat_eq "branch" "Chicago" ] "price" in
  let report = Explain.leave_one_out set q in
  (match report.Explain.baseline with
  | Bounds.Range r -> check_float "baseline respects both" 500. r.Range.hi
  | _ -> Alcotest.fail "baseline");
  List.iter
    (fun (i : Explain.impact) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s widening finite" i.Explain.name)
        true
        (Float.is_finite i.Explain.hi_widening))
    report.Explain.impacts

let test_explain_report_printing () =
  let q = Q.sum "price" in
  let report = Explain.leave_one_out sales_pcs q in
  let text = Format.asprintf "%a" Explain.pp_report report in
  Alcotest.(check bool) "mentions baseline" true
    (String.length text > 0 && String.sub text 0 8 = "baseline")

(* ------------------------------ hybrid ------------------------------ *)

let test_hybrid_clip () =
  let hard _ = Some (Range.make 0. 100.) in
  let statistical = Pc_stats.Estimator.make "s" (fun _ -> Some (Range.make 40. 160.)) in
  let h = Pc_stats.Hybrid.estimator ~mode:`Clip ~name:"H" ~hard ~statistical () in
  match h.Pc_stats.Estimator.estimate (Q.count ()) with
  | Some r ->
      check_float "lo" 40. r.Range.lo;
      check_float "hi" 100. r.Range.hi
  | None -> Alcotest.fail "expected estimate"

let test_hybrid_reject_on_conflict () =
  let hard _ = Some (Range.make 0. 100.) in
  let est v = Pc_stats.Estimator.make "s" (fun _ -> v) in
  (* inside: trusted verbatim *)
  let h =
    Pc_stats.Hybrid.estimator ~name:"H" ~hard
      ~statistical:(est (Some (Range.make 40. 60.))) ()
  in
  (match h.Pc_stats.Estimator.estimate (Q.count ()) with
  | Some r ->
      check_float "trusted lo" 40. r.Range.lo;
      check_float "trusted hi" 60. r.Range.hi
  | None -> Alcotest.fail "expected estimate");
  (* escaping the hard range: rejected *)
  let h =
    Pc_stats.Hybrid.estimator ~name:"H" ~hard
      ~statistical:(est (Some (Range.make 40. 160.))) ()
  in
  match h.Pc_stats.Estimator.estimate (Q.count ()) with
  | Some r ->
      check_float "hard lo" 0. r.Range.lo;
      check_float "hard hi" 100. r.Range.hi
  | None -> Alcotest.fail "expected estimate"

let test_hybrid_fallbacks () =
  let some = Some (Range.make 1. 2.) in
  let est v = Pc_stats.Estimator.make "s" (fun _ -> v) in
  let h1 =
    Pc_stats.Hybrid.estimator ~name:"h" ~hard:(fun _ -> None) ~statistical:(est some) ()
  in
  Alcotest.(check bool) "statistical only" true
    (h1.Pc_stats.Estimator.estimate (Q.count ()) = some);
  let h2 =
    Pc_stats.Hybrid.estimator ~name:"h"
      ~hard:(fun _ -> some)
      ~statistical:(est None) ()
  in
  Alcotest.(check bool) "hard only" true
    (h2.Pc_stats.Estimator.estimate (Q.count ()) = some);
  (* disjoint: the hard range wins *)
  let h3 =
    Pc_stats.Hybrid.estimator ~name:"h"
      ~hard:(fun _ -> Some (Range.make 0. 10.))
      ~statistical:(est (Some (Range.make 50. 60.))) ()
  in
  match h3.Pc_stats.Estimator.estimate (Q.count ()) with
  | Some r ->
      check_float "hard lo" 0. r.Range.lo;
      check_float "hard hi" 10. r.Range.hi
  | None -> Alcotest.fail "expected estimate"

let prop_hybrid_never_worse =
  (* when both sides produce intervals and the hard one contains the
     truth, the hybrid also contains the truth whenever the statistical
     interval does, and is never wider than the statistical interval *)
  QCheck.Test.make ~name:"hybrid is sound clipping" ~count:200
    QCheck.(quad (float_bound_inclusive 100.) (float_bound_inclusive 100.)
              (float_bound_inclusive 100.) (float_bound_inclusive 100.))
    (fun (a, b, c, d) ->
      let hard_r = Range.make (Float.min a b) (Float.max a b) in
      let stat_r = Range.make (Float.min c d) (Float.max c d) in
      let h =
        Pc_stats.Hybrid.estimator ~mode:`Clip ~name:"h"
          ~hard:(fun _ -> Some hard_r)
          ~statistical:(Pc_stats.Estimator.make "s" (fun _ -> Some stat_r)) ()
      in
      match h.Pc_stats.Estimator.estimate (Q.count ()) with
      | None -> false
      | Some r ->
          Range.width r <= Range.width stat_r +. 1e-9
          || Range.width r <= Range.width hard_r +. 1e-9)

let () =
  Alcotest.run "pc_extensions"
    [
      ( "group_by",
        [
          tc "keys" `Quick test_group_by_keys;
          tc "bound per group" `Quick test_group_by_bound;
          tc "residual group" `Quick test_group_by_residual;
          tc "validation" `Quick test_group_by_validation;
          tc "covers the total" `Quick test_group_by_consistency;
        ] );
      ( "explain",
        [
          tc "binding constraint" `Quick test_explain_binding;
          tc "redundant constraints" `Quick test_explain_redundant;
          tc "report printing" `Quick test_explain_report_printing;
        ] );
      ( "hybrid",
        [
          tc "clip mode" `Quick test_hybrid_clip;
          tc "reject on conflict" `Quick test_hybrid_reject_on_conflict;
          tc "fallbacks" `Quick test_hybrid_fallbacks;
          QCheck_alcotest.to_alcotest prop_hybrid_never_worse;
        ] );
    ]
