(* The domain pool and its interaction with the solver stack:
   - parallel_map keeps the sequential contract (order, values, first
     error by input position, nested calls);
   - a budget shared across a parallel map stays sound: crushed caps
     never raise, and the degraded value never tightens below exact. *)

module Pool = Pc_par.Pool
module Pc_set = Pc_core.Pc_set
module B = Pc_budget.Budget

let tc = Alcotest.test_case

(* one shared 4-worker pool: domain spawn/join per test case is the
   expensive part, not the maps. Unclamped so the multi-domain paths are
   exercised even on a single-core CI host. *)
let pool4 = Pool.create_unclamped ~jobs:4

(* ------------------------- parallel_map ---------------------------- *)

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"parallel_map = List.map (order and values)"
    ~count:100
    QCheck.(list int)
    (fun xs ->
      let f x = (x * 37) mod 101 in
      Pool.parallel_map pool4 f xs = List.map f xs
      && Pool.parallel_map Pool.sequential f xs = List.map f xs)

let test_first_error_by_position () =
  (* several failing elements: the re-raised error must be the one a
     sequential List.map would hit first, not the first to finish *)
  let xs = List.init 64 Fun.id in
  let f x = if x mod 17 = 13 then failwith (Printf.sprintf "boom %d" x) else x in
  Alcotest.check_raises "lowest failing index wins" (Failure "boom 13")
    (fun () -> ignore (Pool.parallel_map pool4 f xs))

let test_nested_map_completes () =
  (* a task mapping on the same pool must degrade to sequential instead
     of deadlocking on its own queue *)
  let outer = List.init 8 Fun.id in
  let result =
    Pool.parallel_map pool4
      (fun i ->
        List.fold_left ( + ) 0
          (Pool.parallel_map pool4 (fun j -> (i * 10) + j) [ 1; 2; 3 ]))
      outer
  in
  let expected =
    List.map (fun i -> List.fold_left ( + ) 0 [ (i * 10) + 1; (i * 10) + 2; (i * 10) + 3 ]) outer
  in
  Alcotest.(check (list int)) "nested result" expected result

let test_default_pool_roundtrip () =
  Alcotest.(check int) "starts sequential" 1 (Pool.jobs (Pool.default ()));
  Pool.set_default_jobs 3;
  Alcotest.(check int) "resized" 3 (Pool.jobs (Pool.default ()));
  Alcotest.(check bool) "effective jobs clamped to cores" true
    (Pool.effective_jobs (Pool.default ())
    <= min 3 (Pool.available_cores ()));
  Pool.set_default_jobs 1;
  Alcotest.(check int) "back to sequential" 1 (Pool.jobs (Pool.default ()))

let test_small_work_set_stays_sequential () =
  (* under chunk_threshold × effective items the pool must not pay the
     handoff; output equality is the only observable, so just pin it *)
  let xs = List.init (Pool.chunk_threshold * Pool.effective_jobs pool4 - 1) Fun.id in
  Alcotest.(check (list int))
    "tiny batch" (List.map succ xs)
    (Pool.parallel_map pool4 succ xs)

(* ---------------------- shared budgets ----------------------------- *)

let join_tables rng =
  let n = 20 + Pc_util.Rng.int rng 100 in
  let edges a b =
    Pc_synth.Graphs.random_edges rng ~a ~b ~n ~vertices:(max 2 (n / 2))
  in
  let pcs rel attr =
    Pc_set.make
      (Pc_core.Generate.corr_partition rel ~attrs:[ attr ] ~n:8 ~value_attrs:[] ())
  in
  [
    Pc_join.Join_bound.table ~name:"R" ~join_attrs:[ "a"; "b" ] (pcs (edges "a" "b") "a");
    Pc_join.Join_bound.table ~name:"S" ~join_attrs:[ "b"; "c" ] (pcs (edges "b" "c") "b");
    Pc_join.Join_bound.table ~name:"T" ~join_attrs:[ "c"; "a" ] (pcs (edges "c" "a") "c");
  ]

let prop_parallel_join_deterministic =
  QCheck.Test.make ~name:"parallel join bound = sequential (unbudgeted)"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let tables = join_tables (Pc_util.Rng.create seed) in
      Pc_join.Join_bound.count_bound ~pool:Pool.sequential tables
      = Pc_join.Join_bound.count_bound ~pool:pool4 tables)

let prop_crushed_shared_budget_sound =
  (* one crushed budget shared by all per-table solves running on four
     domains: must not raise, and the degraded bound may only loosen
     (>=) relative to the exact sequential value *)
  QCheck.Test.make ~name:"crushed shared budget: no raise, never tightens"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let tables = join_tables (Pc_util.Rng.create seed) in
      let exact = Pc_join.Join_bound.count_bound ~pool:Pool.sequential tables in
      let crushed =
        B.start (B.spec ~timeout:0. ~cells:1 ~sat_calls:0 ~nodes:0 ~iters:1 ())
      in
      let degraded =
        Pc_join.Join_bound.count_bound ~budget:crushed ~pool:pool4 tables
      in
      degraded >= exact -. 1e-9)

let () =
  Alcotest.run "pc_par"
    [
      ( "pool",
        [
          QCheck_alcotest.to_alcotest prop_map_matches_list_map;
          tc "first error by position" `Quick test_first_error_by_position;
          tc "nested map completes" `Quick test_nested_map_completes;
          tc "default pool roundtrip" `Quick test_default_pool_roundtrip;
          tc "small work set stays sequential" `Quick
            test_small_work_set_stays_sequential;
        ] );
      ( "shared budget",
        [
          QCheck_alcotest.to_alcotest prop_parallel_join_deterministic;
          QCheck_alcotest.to_alcotest prop_crushed_shared_budget_sound;
        ] );
    ]
