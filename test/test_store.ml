open Pc_store
module Q = Pc_query.Query
module Atom = Pc_predicate.Atom
module V = Pc_data.Value
module Range = Pc_core.Range
module Bounds = Pc_core.Bounds

let tc = Alcotest.test_case
let check_float = Alcotest.(check (float 1e-6))

let schema =
  Pc_data.Schema.of_names
    [
      ("day", Pc_data.Schema.Numeric);
      ("city", Pc_data.Schema.Categorical);
      ("amount", Pc_data.Schema.Numeric);
    ]

let row day city amount = [| V.Num day; V.Str city; V.Num amount |]

let partition_rows base =
  [
    row base "Chicago" 10.;
    row (base +. 1.) "New York" 20.;
    row (base +. 2.) "Chicago" 30.;
  ]

let three_partition_store () =
  let store = Store.create schema in
  let store =
    Store.add_partition store ~id:"p1" (Pc_data.Relation.create schema (partition_rows 0.))
  in
  let store =
    Store.add_partition store ~id:"p2" (Pc_data.Relation.create schema (partition_rows 10.))
  in
  Store.add_partition store ~id:"p3" (Pc_data.Relation.create schema (partition_rows 20.))

(* --------------------------- partition ------------------------------ *)

let test_partition_summary () =
  let p =
    Partition.summarize ~id:"x" (Pc_data.Relation.create schema (partition_rows 5.))
  in
  Alcotest.(check int) "count" 3 p.Partition.summary.Partition.count;
  let day_range = List.assoc "day" p.Partition.summary.Partition.ranges in
  check_float "day lo" 5. (Pc_interval.Interval.lo_float day_range);
  check_float "day hi" 7. (Pc_interval.Interval.hi_float day_range);
  Alcotest.(check (list string)) "cities"
    [ "Chicago"; "New York" ]
    (List.assoc "city" p.Partition.summary.Partition.categories);
  Alcotest.(check bool) "summary holds" true (Partition.summary_holds p)

let test_partition_to_pc () =
  let rel = Pc_data.Relation.create schema (partition_rows 5.) in
  let p = Partition.summarize ~id:"x" rel in
  let pc = Partition.to_pc p in
  Alcotest.(check bool) "rows satisfy own zone map" true (Pc_core.Pc.holds rel pc);
  Alcotest.(check int) "frequency pinned" 3 pc.Pc_core.Pc.freq_lo;
  Alcotest.(check int) "frequency pinned hi" 3 pc.Pc_core.Pc.freq_hi

let test_partition_validation () =
  Alcotest.check_raises "empty partition"
    (Invalid_argument "Partition.summarize: empty partition") (fun () ->
      ignore (Partition.summarize ~id:"e" (Pc_data.Relation.create schema [])));
  let p =
    Partition.summarize ~id:"x" (Pc_data.Relation.create schema (partition_rows 0.))
  in
  let missing = Partition.mark_missing p in
  Alcotest.check_raises "rows of missing partition"
    (Invalid_argument "Partition.rows_exn: x is missing") (fun () ->
      ignore (Partition.rows_exn missing))

(* ----------------------------- store -------------------------------- *)

let test_store_fully_loaded_is_exact () =
  let store = three_partition_store () in
  match Store.query store (Q.sum "amount") with
  | Bounds.Range r ->
      check_float "exact lo" 180. r.Range.lo;
      check_float "exact hi" 180. r.Range.hi
  | _ -> Alcotest.fail "expected exact range"

let test_store_missing_partition_bounds () =
  let store = Store.mark_missing (three_partition_store ()) ~id:"p2" in
  Alcotest.(check int) "missing rows counted" 3 (Store.missing_count store);
  (match Store.query store (Q.sum "amount") with
  | Bounds.Range r ->
      (* loaded partitions contribute 120 exactly; the lost one holds
         exactly 3 rows with amounts in [10, 30] *)
      check_float "lo" (120. +. 30.) r.Range.lo;
      check_float "hi" (120. +. 90.) r.Range.hi;
      Alcotest.(check bool) "truth inside" true (Range.contains r 180.)
  | _ -> Alcotest.fail "expected range");
  (* COUNT is pinned: zone maps store exact counts *)
  match Store.query store (Q.count ()) with
  | Bounds.Range r ->
      check_float "count lo" 9. r.Range.lo;
      check_float "count hi" 9. r.Range.hi
  | _ -> Alcotest.fail "expected count range"

let test_store_query_with_predicate () =
  let store = Store.mark_missing (three_partition_store ()) ~id:"p2" in
  (* the lost partition's day range is [10, 12]: a query outside it is
     unaffected and exact *)
  let outside = Q.sum ~where_:[ Atom.between "day" 0. 5. ] "amount" in
  (match Store.query store outside with
  | Bounds.Range r ->
      check_float "unaffected lo" 60. r.Range.lo;
      check_float "unaffected hi" 60. r.Range.hi
  | _ -> Alcotest.fail "expected exact");
  (* a query inside the lost range is uncertain *)
  let inside = Q.sum ~where_:[ Atom.between "day" 10. 12. ] "amount" in
  match Store.query store inside with
  | Bounds.Range r ->
      Alcotest.(check bool) "uncertain" true (r.Range.hi > r.Range.lo);
      Alcotest.(check bool) "contains truth" true (Range.contains r 60.)
  | _ -> Alcotest.fail "expected range"

let test_store_extra_constraints_tighten () =
  let store = Store.mark_missing (three_partition_store ()) ~id:"p2" in
  let q = Q.sum "amount" in
  let plain =
    match Store.query store q with
    | Bounds.Range r -> r
    | _ -> Alcotest.fail "expected range"
  in
  (* the analyst knows lost Chicago rows were all below 15 *)
  let extra =
    Pc_core.Pc.make ~name:"chicago_low"
      ~pred:[ Atom.cat_eq "city" "Chicago" ]
      ~values:[ ("amount", Pc_interval.Interval.closed 0. 15.) ]
      ~freq:(0, 1000) ()
  in
  match Store.query ~extra:[ extra ] store q with
  | Bounds.Range r ->
      Alcotest.(check bool) "tighter hi" true (r.Range.hi <= plain.Range.hi +. 1e-9)
  | _ -> Alcotest.fail "expected range"

let test_store_restore () =
  let original = Pc_data.Relation.create schema (partition_rows 10.) in
  let store = Store.mark_missing (three_partition_store ()) ~id:"p2" in
  let store = Store.restore store ~id:"p2" original in
  (match Store.query store (Q.sum "amount") with
  | Bounds.Range r -> check_float "exact again" 180. r.Range.hi
  | _ -> Alcotest.fail "expected exact");
  (* restoring rows violating the zone map is rejected *)
  let bogus = Pc_data.Relation.create schema [ row 10. "Chicago" 9_999. ] in
  let broken = Store.mark_missing store ~id:"p3" in
  Alcotest.(check bool) "zone-map-violating restore rejected" true
    (try
       ignore (Store.restore broken ~id:"p3" bogus);
       false
     with Invalid_argument _ -> true)

let test_store_validation () =
  let store = three_partition_store () in
  Alcotest.(check bool) "duplicate id" true
    (try
       ignore
         (Store.add_partition store ~id:"p1"
            (Pc_data.Relation.create schema (partition_rows 0.)));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown id" true
    (try
       ignore (Store.mark_missing store ~id:"nope");
       false
     with Not_found -> true)

let test_store_dsl_roundtrip () =
  let store = three_partition_store () in
  let dsl = Store.summaries_to_dsl store in
  let pcs = Pc_parse.Pc_parser.parse dsl in
  Alcotest.(check int) "three summaries" 3 (List.length pcs);
  (* each parsed constraint still holds on its partition's rows *)
  List.iter2
    (fun pc (p : Partition.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "parsed %s holds" p.Partition.id)
        true
        (Pc_core.Pc.holds (Partition.rows_exn p) pc))
    pcs (Store.partitions store)

(* The zone-map summaries print and parse back as the same constraints,
   bit for bit, over doubles that 12 digits cannot carry. *)
let prop_store_dsl_exact =
  let gen_part =
    QCheck.Gen.(
      list_size (1 -- 6)
        (let* day = Doubles.gen and* amount = Doubles.gen in
         let* city = oneofl [ "Chicago"; "New York"; "O'Hare" ] in
         return (row day city amount)))
  in
  QCheck.Test.make ~name:"summaries_to_dsl then parse is the identity"
    ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 4) gen_part))
    (fun parts ->
      let store =
        List.fold_left
          (fun (i, st) rows ->
            ( i + 1,
              Store.add_partition st ~id:(Printf.sprintf "p%d" i)
                (Pc_data.Relation.create schema rows) ))
          (0, Store.create schema) parts
        |> snd
      in
      let pcs = List.map Partition.to_pc (Store.partitions store) in
      let back = Pc_parse.Pc_parser.parse (Store.summaries_to_dsl store) in
      back = pcs
      && List.map Pc_parse.Pc_parser.to_dsl back
         = List.map Pc_parse.Pc_parser.to_dsl pcs)

(* soundness: random partitioned datasets, random losses, random queries *)
let store_sound seed =
      let rng = Pc_util.Rng.create seed in
      let n_parts = 2 + Pc_util.Rng.int rng 5 in
      let make_part i =
        let base = float_of_int (10 * i) in
        Pc_data.Relation.create schema
          (List.init
             (3 + Pc_util.Rng.int rng 20)
             (fun _ ->
               row
                 (base +. Pc_util.Rng.uniform rng ~lo:0. ~hi:12.)
                 (if Pc_util.Rng.bool rng then "Chicago" else "New York")
                 (Pc_util.Rng.uniform rng ~lo:0. ~hi:100.)))
      in
      let parts = List.init n_parts make_part in
      let store =
        List.fold_left
          (fun (i, st) rel ->
            (i + 1, Store.add_partition st ~id:(Printf.sprintf "p%d" i) rel))
          (0, Store.create schema)
          parts
        |> snd
      in
      let full =
        List.fold_left Pc_data.Relation.union (Pc_data.Relation.create schema []) parts
      in
      (* lose a random nonempty subset of partitions *)
      let store =
        List.fold_left
          (fun st i ->
            if i = 0 || Pc_util.Rng.bool rng then
              Store.mark_missing st ~id:(Printf.sprintf "p%d" i)
            else st)
          store
          (List.init n_parts Fun.id)
      in
      let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:50. in
      let query =
        match Pc_util.Rng.int rng 4 with
        | 0 -> Q.count ~where_:[ Atom.between "day" lo (lo +. 15.) ] ()
        | 1 -> Q.sum ~where_:[ Atom.between "day" lo (lo +. 15.) ] "amount"
        | 2 -> Q.sum ~where_:[ Atom.cat_eq "city" "Chicago" ] "amount"
        | _ -> Q.avg ~where_:[ Atom.between "day" lo (lo +. 25.) ] "amount"
      in
      match (Store.query store query, Q.eval full query) with
      | Bounds.Infeasible, _ -> false
      | Bounds.Empty, None -> true
      | Bounds.Empty, Some _ -> false
      | Bounds.Range _, None -> true
      | Bounds.Range r, Some truth -> Range.contains r truth

let prop_store_sound =
  QCheck.Test.make ~name:"store ranges contain the full-data truth" ~count:100
    QCheck.(int_bound 100_000) store_sound

(* Seeds of [prop_store_sound] whose lost partitions overlap: rows lost
   from one partition fall inside another's zone-map box, so a zone map
   pinned to its own count and ranges alone excludes the truth. *)
let test_store_overlapping_losses () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (store_sound seed))
    [ 4765; 10017; 14658; 21851; 72365 ]

let () =
  Alcotest.run "pc_store"
    [
      ( "partition",
        [
          tc "summary" `Quick test_partition_summary;
          tc "to_pc" `Quick test_partition_to_pc;
          tc "validation" `Quick test_partition_validation;
        ] );
      ( "store",
        [
          tc "fully loaded is exact" `Quick test_store_fully_loaded_is_exact;
          tc "missing partition bounds" `Quick test_store_missing_partition_bounds;
          tc "query with predicate" `Quick test_store_query_with_predicate;
          tc "extra constraints tighten" `Quick test_store_extra_constraints_tighten;
          tc "restore" `Quick test_store_restore;
          tc "validation" `Quick test_store_validation;
          tc "DSL roundtrip" `Quick test_store_dsl_roundtrip;
          QCheck_alcotest.to_alcotest prop_store_dsl_exact;
          QCheck_alcotest.to_alcotest prop_store_sound;
          tc "overlapping lost partitions" `Quick test_store_overlapping_losses;
        ] );
    ]
