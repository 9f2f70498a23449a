open Pc_join
module I = Pc_interval.Interval
module Q = Pc_query.Query

let tc = Alcotest.test_case
let check_float = Alcotest.(check (float 1e-4))

let test_hypergraph () =
  let hg = Hypergraph.triangle in
  Alcotest.(check int) "three relations" 3 (Hypergraph.size hg);
  Alcotest.(check (list string)) "attrs" [ "a"; "b"; "c" ] (Hypergraph.attrs hg);
  Alcotest.(check (list string)) "covering a" [ "R"; "T" ] (Hypergraph.covering hg "a");
  Alcotest.(check bool) "mem" true (Hypergraph.mem hg "S");
  Alcotest.(check int) "chain size" 5 (Hypergraph.size (Hypergraph.chain 5));
  Alcotest.(check int) "4-clique has 6 edges" 6 (Hypergraph.size (Hypergraph.clique 4));
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Hypergraph.make: duplicate relation names") (fun () ->
      ignore
        (Hypergraph.make
           [
             { Hypergraph.name = "R"; attrs = [ "a" ] };
             { Hypergraph.name = "R"; attrs = [ "b" ] };
           ]))

let test_edge_cover_triangle () =
  let weights = [ ("R", 100.); ("S", 100.); ("T", 100.) ] in
  match Edge_cover.solve ~weights Hypergraph.triangle with
  | None -> Alcotest.fail "expected a cover"
  | Some cover ->
      (* optimal fractional cover of the triangle is (1/2, 1/2, 1/2) *)
      List.iter (fun (_, c) -> check_float "coefficient" 0.5 c) cover;
      check_float "bound is N^1.5" (100. ** 1.5)
        (Edge_cover.product_bound ~weights cover)

let test_edge_cover_chain () =
  let hg = Hypergraph.chain 5 in
  let weights = List.map (fun (r : Hypergraph.rel) -> (r.Hypergraph.name, 10.)) (Hypergraph.rels hg) in
  match Edge_cover.solve ~weights hg with
  | None -> Alcotest.fail "expected a cover"
  | Some cover ->
      (* odd chain: cover {R1, R3, R5} with coefficient 1 -> N^3 *)
      check_float "bound is N^3" 1000. (Edge_cover.product_bound ~weights cover)

let test_edge_cover_fixed () =
  let weights = [ ("R", 100.); ("S", 100.); ("T", 100.) ] in
  match Edge_cover.solve ~fixed:[ ("R", 1.) ] ~weights Hypergraph.triangle with
  | None -> Alcotest.fail "expected a cover"
  | Some cover ->
      check_float "fixed coefficient" 1. (List.assoc "R" cover);
      (* with c_R = 1, attrs a and b are covered; only c needs S or T *)
      let bound = Edge_cover.product_bound ~weights cover in
      check_float "bound is N^2" (100. ** 2.) bound

let test_cover_validity_prop () =
  (* every attribute covered with total >= 1 for random hypergraphs *)
  let rng = Pc_util.Rng.create 5 in
  for _ = 1 to 50 do
    let n_rels = 2 + Pc_util.Rng.int rng 4 in
    let n_attrs = 2 + Pc_util.Rng.int rng 4 in
    let rels =
      List.init n_rels (fun i ->
          let attrs =
            List.filter
              (fun _ -> Pc_util.Rng.bool rng)
              (List.init n_attrs (fun j -> Printf.sprintf "x%d" j))
          in
          let attrs = if attrs = [] then [ "x0" ] else attrs in
          { Hypergraph.name = Printf.sprintf "R%d" i; attrs })
    in
    (* ensure every attribute appears somewhere *)
    let rels =
      { Hypergraph.name = "Rall"; attrs = List.init n_attrs (fun j -> Printf.sprintf "x%d" j) }
      :: rels
    in
    let hg = Hypergraph.make rels in
    let weights =
      List.map
        (fun (r : Hypergraph.rel) ->
          (r.Hypergraph.name, 1. +. Pc_util.Rng.float rng 100.))
        (Hypergraph.rels hg)
    in
    match Edge_cover.solve ~weights hg with
    | None -> Alcotest.fail "cover should exist"
    | Some cover ->
        List.iter
          (fun attr ->
            let total =
              List.fold_left
                (fun acc name -> acc +. List.assoc name cover)
                0.
                (Hypergraph.covering hg attr)
            in
            Alcotest.(check bool)
              (Printf.sprintf "attr %s covered" attr)
              true (total >= 1. -. 1e-6))
          (Hypergraph.attrs hg)
  done

let edges_pcs rel attr =
  Pc_core.Pc_set.make
    (Pc_core.Generate.corr_partition rel ~attrs:[ attr ] ~n:8 ~value_attrs:[] ())

let make_triangle_tables rng n =
  let r = Pc_synth.Graphs.random_edges rng ~a:"a" ~b:"b" ~n ~vertices:(max 2 (n / 2)) in
  let s = Pc_synth.Graphs.random_edges rng ~a:"b" ~b:"c" ~n ~vertices:(max 2 (n / 2)) in
  let t = Pc_synth.Graphs.random_edges rng ~a:"c" ~b:"a" ~n ~vertices:(max 2 (n / 2)) in
  ( (r, s, t),
    [
      Join_bound.table ~name:"R" ~join_attrs:[ "a"; "b" ] (edges_pcs r "a");
      Join_bound.table ~name:"S" ~join_attrs:[ "b"; "c" ] (edges_pcs s "b");
      Join_bound.table ~name:"T" ~join_attrs:[ "c"; "a" ] (edges_pcs t "c");
    ] )

let test_count_bound_dominates_truth () =
  let rng = Pc_util.Rng.create 11 in
  for _ = 1 to 10 do
    let n = 20 + Pc_util.Rng.int rng 200 in
    let (r, s, t), tables = make_triangle_tables rng n in
    let truth = float_of_int (Pc_synth.Graphs.triangle_count ~r ~s ~t) in
    let bound = Join_bound.count_bound tables in
    let naive = Join_bound.naive_count_bound tables in
    Alcotest.(check bool) "GWE bound dominates truth" true (bound >= truth -. 1e-6);
    Alcotest.(check bool) "naive dominates GWE" true (naive >= bound -. 1e-6)
  done

let test_chain_bound_dominates_truth () =
  let rng = Pc_util.Rng.create 13 in
  for _ = 1 to 5 do
    let n = 20 + Pc_util.Rng.int rng 100 in
    let rels =
      List.init 5 (fun i ->
          Pc_synth.Graphs.random_edges rng
            ~a:(Printf.sprintf "x%d" (i + 1))
            ~b:(Printf.sprintf "x%d" (i + 2))
            ~n ~vertices:(max 2 (n / 3)))
    in
    let tables =
      List.mapi
        (fun i rel ->
          Join_bound.table
            ~name:(Printf.sprintf "R%d" (i + 1))
            ~join_attrs:[ Printf.sprintf "x%d" (i + 1); Printf.sprintf "x%d" (i + 2) ]
            (edges_pcs rel (Printf.sprintf "x%d" (i + 1))))
        rels
    in
    let truth = float_of_int (Pc_synth.Graphs.chain_join_count rels) in
    let bound = Join_bound.count_bound tables in
    Alcotest.(check bool) "chain bound dominates truth" true (bound >= truth -. 1e-6)
  done

let test_per_table_predicates () =
  (* restricting one table below the join shrinks the bound soundly *)
  let rng = Pc_util.Rng.create 19 in
  let (r, s, t), tables = make_triangle_tables rng 150 in
  ignore (r, s, t);
  let full = Join_bound.count_bound tables in
  let restricted =
    match tables with
    | first :: rest ->
        { first with Join_bound.where_ = [ Pc_predicate.Atom.between "a" 0. 20. ] }
        :: rest
    | [] -> assert false
  in
  let narrowed = Join_bound.count_bound restricted in
  Alcotest.(check bool) "narrowed bound is no larger" true (narrowed <= full +. 1e-6);
  Alcotest.(check bool) "narrowed bound still positive" true (narrowed > 0.);
  (* an impossible per-table predicate zeroes the join *)
  let impossible =
    match tables with
    | first :: rest ->
        { first with Join_bound.where_ = [ Pc_predicate.Atom.between "a" 1e9 2e9 ] }
        :: rest
    | [] -> assert false
  in
  Alcotest.(check (float 0.)) "impossible selection" 0.
    (Join_bound.count_bound impossible)

let test_elastic_looser () =
  List.iter
    (fun n ->
      let pc_shape = n ** 1.5 in
      let es = Elastic.triangle_bound ~n in
      Alcotest.(check bool) "ES much looser than N^1.5" true (es > 10. *. pc_shape);
      (* ES grows like N^3 *)
      Alcotest.(check bool) "ES at most ~cubic" true (es <= 30. *. (n ** 3.)))
    [ 10.; 100.; 1000. ]

let test_sensitivity_monotone () =
  let sizes = [ ("R", 50.); ("S", 50.); ("T", 50.) ] in
  let s0 = Elastic.sensitivity_at ~sizes Hypergraph.triangle ~distance:0. in
  let s10 = Elastic.sensitivity_at ~sizes Hypergraph.triangle ~distance:10. in
  Alcotest.(check bool) "monotone in distance" true (s10 >= s0);
  Alcotest.(check (float 1e-9)) "S(0) is product of others" (50. *. 50.) s0

let test_product_pc_set () =
  let mk name attr lo hi count =
    Pc_core.Pc.make ~name
      ~pred:[ Pc_predicate.Atom.between attr lo hi ]
      ~values:[ (attr, I.closed lo hi) ]
      ~freq:(0, count) ()
  in
  let a = Pc_core.Pc_set.make [ mk "a1" "x" 0. 1. 3; mk "a2" "x" 1. 2. 4 ] in
  let b = Pc_core.Pc_set.make [ mk "b1" "y" 0. 1. 5 ] in
  let p = Join_bound.product_pc_set a b in
  Alcotest.(check int) "2x1 products" 2 (Pc_core.Pc_set.size p);
  let first = Pc_core.Pc_set.get p 0 in
  Alcotest.(check int) "multiplied freq" 15 first.Pc_core.Pc.freq_hi;
  (* shared attributes rejected *)
  Alcotest.(check bool) "shared attrs rejected" true
    (try
       ignore (Join_bound.product_pc_set a a);
       false
     with Invalid_argument _ -> true)

let test_product_bound_is_naive () =
  (* bounding COUNT through the product set equals the naive product *)
  let rng = Pc_util.Rng.create 17 in
  let r = Pc_synth.Graphs.random_edges rng ~a:"a" ~b:"b" ~n:50 ~vertices:20 in
  let s = Pc_synth.Graphs.random_edges rng ~a:"c" ~b:"d" ~n:60 ~vertices:20 in
  let pr = edges_pcs r "a" and ps = edges_pcs s "c" in
  let product = Join_bound.product_pc_set pr ps in
  match Pc_core.Bounds.bound product (Q.count ()) with
  | Pc_core.Bounds.Range range ->
      check_float "product set count" (50. *. 60.) range.Pc_core.Range.hi
  | _ -> Alcotest.fail "expected range"

(* Triangle tables of 20-119 edges each; R, S and T are built inside one
   list literal, so their draws come in OCaml's evaluation order. *)
let budget_tables rng =
  let n = 20 + Pc_util.Rng.int rng 100 in
  let edges a b =
    Pc_synth.Graphs.random_edges rng ~a ~b ~n ~vertices:(max 2 (n / 2))
  in
  [
    Join_bound.table ~name:"R" ~join_attrs:[ "a"; "b" ] (edges_pcs (edges "a" "b") "a");
    Join_bound.table ~name:"S" ~join_attrs:[ "b"; "c" ] (edges_pcs (edges "b" "c") "b");
    Join_bound.table ~name:"T" ~join_attrs:[ "c"; "a" ] (edges_pcs (edges "c" "a") "c");
  ]

let prop_crushed_shared_budget_sound =
  (* one crushed budget shared by every per-table solve and the cover LP:
     must not raise, and the degraded bound may only loosen (>=) relative
     to the exact value *)
  QCheck.Test.make ~name:"crushed shared budget: no raise, never tightens"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let tables = budget_tables (Pc_util.Rng.create seed) in
      let exact = Join_bound.count_bound tables in
      let crushed =
        Pc_budget.Budget.start
          (Pc_budget.Budget.spec ~timeout:0. ~cells:1 ~sat_calls:0 ~nodes:0
             ~iters:1 ())
      in
      Join_bound.count_bound ~budget:crushed tables >= exact -. 1e-9)

let () =
  Alcotest.run "pc_join"
    [
      ("hypergraph", [ tc "shapes" `Quick test_hypergraph ]);
      ( "edge_cover",
        [
          tc "triangle" `Quick test_edge_cover_triangle;
          tc "chain" `Quick test_edge_cover_chain;
          tc "fixed coefficient" `Quick test_edge_cover_fixed;
          tc "random covers valid" `Quick test_cover_validity_prop;
        ] );
      ( "join_bound",
        [
          tc "triangle dominates truth" `Quick test_count_bound_dominates_truth;
          tc "chain dominates truth" `Quick test_chain_bound_dominates_truth;
          tc "per-table predicates" `Quick test_per_table_predicates;
          tc "product pc set" `Quick test_product_pc_set;
          tc "product bound equals naive" `Quick test_product_bound_is_naive;
        ] );
      ( "elastic",
        [
          tc "looser than GWE" `Quick test_elastic_looser;
          tc "sensitivity monotone" `Quick test_sensitivity_monotone;
        ] );
      ("shared budget", [ QCheck_alcotest.to_alcotest prop_crushed_shared_budget_sound ]);
    ]
