(* Interval-FDD decomposition against the DFS reference oracle, plus the
   interval-edge splitting behaviour at shared endpoints. *)

open Pc_core
module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module Fdd = Pc_predicate.Fdd
module V = Pc_data.Value

let tc = Alcotest.test_case
let mk ?name pred values freq = Pc.make ?name ~pred ~values ~freq ()

let same_decomposition ?query_pred set =
  let oracle, _ = Cells.decompose ~strategy:Cells.Dfs_rewrite ?query_pred set in
  let fdd, stats = Cells.decompose ~strategy:Cells.Fdd ?query_pred set in
  if stats.Cells.sat_calls <> 0 then
    Alcotest.failf "fdd strategy made %d solver calls" stats.Cells.sat_calls;
  oracle = fdd

(* ------------------- shared-endpoint interval splitting ------------- *)

let test_shared_endpoint_closed () =
  (* [0,10] and [10,20] share x = 10: the singleton cell [10,10] is
     active in both, so three cells exist. *)
  let p0 = mk ~name:"a" [ Atom.between "x" 0. 10. ] [] (0, 5) in
  let p1 = mk ~name:"b" [ Atom.between "x" 10. 20. ] [] (0, 5) in
  let set = Pc_set.make [ p0; p1 ] in
  let cells, _ = Cells.decompose ~strategy:Cells.Fdd set in
  Alcotest.(check (list (list int)))
    "three cells, both-active singleton first"
    [ [ 0; 1 ]; [ 0 ]; [ 1 ] ]
    cells;
  Alcotest.(check bool) "matches oracle" true (same_decomposition set)

let test_shared_endpoint_half_open () =
  (* [0,10) and [10,20] abut without overlapping: no shared cell. *)
  let p0 =
    mk ~name:"a"
      [ Atom.Num_range ("x", I.make_exn (I.Closed 0.) (I.Open 10.)) ]
      [] (0, 5)
  in
  let p1 = mk ~name:"b" [ Atom.between "x" 10. 20. ] [] (0, 5) in
  let set = Pc_set.make [ p0; p1 ] in
  let cells, _ = Cells.decompose ~strategy:Cells.Fdd set in
  Alcotest.(check (list (list int)))
    "two disjoint cells" [ [ 0 ]; [ 1 ] ] cells;
  Alcotest.(check bool) "matches oracle" true (same_decomposition set)

let test_refine_splits_shared_endpoints () =
  let pieces = I.refine [ I.closed 0. 10.; I.closed 10. 20. ] in
  Alcotest.(check (list string))
    "five pieces, singleton at the shared endpoint"
    [ "(-inf, 0)"; "[0, 10)"; "[10, 10]"; "(10, 20]"; "(20, +inf)" ]
    (List.map I.to_string pieces);
  (* ascending partition: neighbours abut *)
  let rec check_abuts = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s abuts %s" (I.to_string a) (I.to_string b))
          true (I.abuts a b);
        check_abuts rest
    | _ -> ()
  in
  check_abuts pieces

(* --------------------------- fixed cases ---------------------------- *)

let test_paper_example () =
  let t1 =
    mk ~name:"t1"
      [ Atom.Num_range ("utc", I.make_exn (I.Closed 11.) (I.Open 12.)) ]
      [ ("price", I.closed 0.99 129.99) ]
      (50, 100)
  in
  let t2 =
    mk ~name:"t2"
      [ Atom.Num_range ("utc", I.make_exn (I.Closed 11.) (I.Open 13.)) ]
      [ ("price", I.closed 0.99 149.99) ]
      (75, 125)
  in
  let set = Pc_set.make [ t1; t2 ] in
  let cells, _ = Cells.decompose ~strategy:Cells.Fdd set in
  Alcotest.(check (list (list int)))
    "cells of the §4.4 example" [ [ 0; 1 ]; [ 1 ] ] cells;
  Alcotest.(check bool) "matches oracle" true (same_decomposition set)

let test_categorical_and_query () =
  let chi =
    mk ~name:"chi" [ Atom.cat_eq "branch" "Chicago" ] [] (0, 5)
  in
  let not_ny =
    mk ~name:"not-ny" [ Atom.Cat_neq ("branch", "NY") ] [] (0, 7)
  in
  let cheap = mk ~name:"cheap" [ Atom.at_most "price" 100. ] [] (0, 9) in
  let set = Pc_set.make [ chi; not_ny; cheap ] in
  Alcotest.(check bool) "no query" true (same_decomposition set);
  Alcotest.(check bool) "numeric query" true
    (same_decomposition ~query_pred:[ Atom.at_least "price" 50. ] set);
  Alcotest.(check bool) "categorical query" true
    (same_decomposition ~query_pred:[ Atom.cat_eq "branch" "Chicago" ] set);
  Alcotest.(check bool) "excluding query" true
    (same_decomposition ~query_pred:[ Atom.Cat_neq ("branch", "Chicago") ] set);
  Alcotest.(check bool) "unsat query" true
    (same_decomposition
       ~query_pred:
         [ Atom.at_least "price" 200.; Atom.at_most "price" 100. ]
       set)

let test_sharing () =
  (* Ten copies of the same predicate share one chain: the diagram stays
     tiny even though there are 2¹⁰ subsets. *)
  let pred = [ Atom.between "x" 0. 10. ] in
  let fdd =
    Fdd.compile (Array.init 10 (fun _ -> pred))
  in
  Alcotest.(check bool)
    (Printf.sprintf "node count stays small (%d)" (Fdd.n_nodes fdd))
    true
    (Fdd.n_nodes fdd < 40);
  Alcotest.(check (list (list int)))
    "one all-active cell"
    [ [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] ]
    (Fdd.cells fdd)

let test_route () =
  let schema =
    Pc_data.Schema.of_names
      [ ("branch", Pc_data.Schema.Categorical); ("price", Pc_data.Schema.Numeric) ]
  in
  let preds =
    [|
      [ Atom.cat_eq "branch" "Chicago"; Atom.at_most "price" 100. ];
      [ Atom.Cat_neq ("branch", "NY") ];
      [ Atom.greater_than "price" 50. ];
    |]
  in
  let fdd = Fdd.compile preds in
  let rows =
    [
      [| V.Str "Chicago"; V.Num 80. |];
      [| V.Str "Chicago"; V.Num 120. |];
      [| V.Str "NY"; V.Num 60. |];
      [| V.Str "Trenton"; V.Num 10. |];
    ]
  in
  List.iter
    (fun row ->
      let expect =
        List.filter
          (fun i -> Pred.eval schema preds.(i) row)
          [ 0; 1; 2 ]
      in
      Alcotest.(check (list int)) "route = per-predicate eval" expect
        (Fdd.route fdd schema row))
    rows

let test_route_open_universe () =
  (* a row off every predicate walks to the open-universe leaf: its
     active set is empty, so streaming ingestion charges it to no PC's
     missing-row budget *)
  let schema =
    Pc_data.Schema.of_names
      [ ("branch", Pc_data.Schema.Categorical); ("price", Pc_data.Schema.Numeric) ]
  in
  let preds =
    [|
      [ Atom.cat_eq "branch" "Chicago" ];
      [ Atom.between "price" 0. 100. ];
    |]
  in
  let fdd = Fdd.compile preds in
  Alcotest.(check (list int))
    "off-universe row routes nowhere" []
    (Fdd.route fdd schema [| V.Str "NY"; V.Num 500. |]);
  (* boundary sanity around the same leaf structure *)
  Alcotest.(check (list int))
    "edge of the price interval still routes" [ 1 ]
    (Fdd.route fdd schema [| V.Str "NY"; V.Num 100. |]);
  Alcotest.(check (list int))
    "both predicates" [ 0; 1 ]
    (Fdd.route fdd schema [| V.Str "Chicago"; V.Num 40. |])

(* ------------------------- qcheck oracle ----------------------------- *)

(* Random PC sets over two numeric attributes and one categorical one;
   attribute kinds are fixed by name so numeric/categorical use never
   clashes. Up to 12 PCs — beyond the reach of the naive enumerator but
   cheap for both DFS and FDD. *)
let random_pc_set rng k =
  let branches = [ "a"; "b"; "c"; "d" ] in
  let pick l = List.nth l (Pc_util.Rng.int rng (List.length l)) in
  let num_atom attr =
    let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:80. in
    let w = Pc_util.Rng.uniform rng ~lo:5. ~hi:40. in
    match Pc_util.Rng.int rng 4 with
    | 0 -> Atom.Num_range (attr, I.make_exn (I.Closed lo) (I.Open (lo +. w)))
    | 1 -> Atom.at_least attr lo
    | 2 -> Atom.at_most attr (lo +. w)
    | _ -> Atom.between attr lo (lo +. w)
  in
  let cat_atom () =
    match Pc_util.Rng.int rng 4 with
    | 0 -> Atom.cat_eq "branch" (pick branches)
    | 1 -> Atom.Cat_neq ("branch", pick branches)
    | 2 -> Atom.Cat_in ("branch", [ pick branches; pick branches ])
    | _ -> Atom.Cat_not_in ("branch", [ pick branches; pick branches ])
  in
  let atom () =
    match Pc_util.Rng.int rng 3 with
    | 0 -> num_atom "utc"
    | 1 -> num_atom "price"
    | _ -> cat_atom ()
  in
  let pcs =
    List.init k (fun i ->
        let n_atoms = 1 + Pc_util.Rng.int rng 2 in
        mk
          ~name:(Printf.sprintf "p%d" i)
          (List.init n_atoms (fun _ -> atom ()))
          []
          (0, 1 + Pc_util.Rng.int rng 20))
  in
  Pc_set.make pcs

let random_query rng =
  match Pc_util.Rng.int rng 4 with
  | 0 -> Pred.tt
  | 1 -> [ Atom.between "utc" 20. 60. ]
  | 2 -> [ Atom.cat_eq "branch" "a" ]
  | _ -> [ Atom.at_least "price" 40.; Atom.Cat_neq ("branch", "b") ]

let prop_fdd_matches_dfs =
  QCheck.Test.make
    ~name:"FDD decomposition ≡ DFS oracle (cells, order)" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let k = 1 + Pc_util.Rng.int rng 12 in
      let set = random_pc_set rng k in
      let query_pred = random_query rng in
      same_decomposition ~query_pred set)

let prop_route_matches_eval =
  QCheck.Test.make ~name:"row routing ≡ per-predicate evaluation" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let k = 1 + Pc_util.Rng.int rng 8 in
      let set = random_pc_set rng k in
      let preds =
        Array.of_list (List.map (fun pc -> pc.Pc.pred) (Pc_set.pcs set))
      in
      let fdd = Fdd.compile preds in
      let schema =
        Pc_data.Schema.of_names
          [
            ("utc", Pc_data.Schema.Numeric);
            ("price", Pc_data.Schema.Numeric);
            ("branch", Pc_data.Schema.Categorical);
          ]
      in
      List.for_all
        (fun _ ->
          let row =
            [|
              V.Num (Pc_util.Rng.uniform rng ~lo:(-10.) ~hi:130.);
              V.Num (Pc_util.Rng.uniform rng ~lo:(-10.) ~hi:130.);
              V.Str (List.nth [ "a"; "b"; "c"; "d"; "zz" ] (Pc_util.Rng.int rng 5));
            |]
          in
          let expect =
            List.filter
              (fun i -> Pred.eval schema preds.(i) row)
              (List.init (Array.length preds) Fun.id)
          in
          Fdd.route fdd schema row = expect)
        (List.init 20 Fun.id))

(* [active_pcs] marks PCs in one walk; its definition is the sorted
   union of the reachable cells' active sets. Queries conjoin up to
   three random atoms, half of them points (so few cells are reachable
   and some queries are unsatisfiable), and now and then use an
   attribute at the wrong kind, which must raise the same error.
   Without a kind clash the result must also be the PCs whose predicate
   meets the query in one box: [cells] shares the walk, so only this
   second check tests the walk itself. *)
let prop_active_pcs_matches_cells =
  QCheck.Test.make ~name:"active_pcs ≡ union of the cells' active sets"
    ~count:500
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let set = random_pc_set rng (1 + Pc_util.Rng.int rng 12) in
      let fdd =
        Fdd.compile (Array.of_list (List.map (fun pc -> pc.Pc.pred) (Pc_set.pcs set)))
      in
      let atom () =
        let lo = Pc_util.Rng.uniform rng ~lo:(-10.) ~hi:100. in
        let hi =
          lo +. if Pc_util.Rng.bool rng then 0. else Pc_util.Rng.uniform rng ~lo:0. ~hi:50.
        in
        match Pc_util.Rng.int rng 8 with
        | 0 -> Atom.between "utc" lo hi
        | 1 -> Atom.Num_range ("price", I.make_exn (I.Open lo) (I.Open (hi +. 1.)))
        | 2 -> Atom.at_least "price" lo
        | 3 -> Atom.cat_eq "branch" (List.nth [ "a"; "b"; "zz" ] (Pc_util.Rng.int rng 3))
        | 4 -> Atom.Cat_in ("branch", [ "a"; "c" ])
        | 5 -> Atom.Cat_not_in ("branch", [ "b"; "d" ])
        | 6 -> Atom.Cat_neq ("branch", "a")
        | _ ->
            if Pc_util.Rng.int rng 4 = 0 then Atom.cat_eq "utc" "x"
            else Atom.between "other" lo hi
      in
      let query = List.init (Pc_util.Rng.int rng 4) (fun _ -> atom ()) in
      let run f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      let defined () =
        List.fold_left
          (fun acc ids -> List.sort_uniq Int.compare (acc @ ids))
          [] (Fdd.cells ~query fdd)
      in
      let meets () =
        List.filter
          (fun j ->
            Option.is_some
              (Pc_predicate.Box.of_pred (List.nth (Pc_set.pcs set) j).Pc.pred
              |> Fun.flip Option.bind (fun b -> Pc_predicate.Box.add_pred b query)))
          (List.init (Pc_set.size set) Fun.id)
      in
      let got = run (fun () -> Fdd.active_pcs ~query fdd) in
      run defined = got
      && match (got, run meets) with Ok a, Ok b -> a = b | _ -> true)

let () =
  Alcotest.run "pc_fdd"
    [
      ( "splitting",
        [
          tc "shared closed endpoint" `Quick test_shared_endpoint_closed;
          tc "abutting half-open" `Quick test_shared_endpoint_half_open;
          tc "Interval.refine at shared endpoints" `Quick
            test_refine_splits_shared_endpoints;
        ] );
      ( "decomposition",
        [
          tc "paper example" `Quick test_paper_example;
          tc "categorical + query pushdown" `Quick test_categorical_and_query;
          tc "hash-cons sharing" `Quick test_sharing;
          tc "row routing" `Quick test_route;
          tc "open-universe leaf routes to no PC" `Quick
            test_route_open_universe;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_active_pcs_matches_cells;
          QCheck_alcotest.to_alcotest prop_fdd_matches_dfs;
          QCheck_alcotest.to_alcotest prop_route_matches_eval;
        ] );
    ]
