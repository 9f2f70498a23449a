(* Streaming ingestion: columnar batches, the snapshot-isolated stream,
   delta-scoped cache invalidation, the server's append/retract wire
   ops, and the qcheck pin that the incremental engine's warm rebound
   equals a from-scratch bound on every prefix of random append/retract
   schedules. *)

open Pc_core
module Batch = Pc_data.Batch
module Relation = Pc_data.Relation
module Schema = Pc_data.Schema
module V = Pc_data.Value
module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module Fdd = Pc_predicate.Fdd
module Stream = Pc_store.Stream
module Cache = Pc_server.Cache
module Q = Pc_query.Query
module S = Pc_server.Server
module C = Pc_server.Client
module J = Pc_obs.Json

let tc = Alcotest.test_case
let mk ?name pred values freq = Pc.make ?name ~pred ~values ~freq ()

(* the §4.4 paper example, with value constraints so SUM is in scope *)
let paper_set () =
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
  Pc_set.make [ t1; t2 ]

let compile_fdd set =
  Fdd.compile
    (Array.of_list (List.map (fun (pc : Pc.t) -> pc.Pc.pred) (Pc_set.pcs set)))

let schema_up =
  Schema.of_names [ ("utc", Schema.Numeric); ("price", Schema.Numeric) ]

let freqs set =
  List.map (fun (pc : Pc.t) -> (pc.Pc.freq_lo, pc.Pc.freq_hi)) (Pc_set.pcs set)

(* ------------------------------ batches ------------------------------ *)

let test_batch_roundtrip () =
  let b = Batch.of_csv_string "utc,price\n11.5,20.0\n12.4,99.0\n" in
  Alcotest.(check int) "rows" 2 (Batch.rows b);
  Alcotest.(check int) "arity" 2 (Schema.arity (Batch.schema b));
  (match Batch.row b 1 with
  | [| V.Num u; V.Num p |] ->
      Alcotest.(check (float 1e-9)) "utc" 12.4 u;
      Alcotest.(check (float 1e-9)) "price" 99.0 p
  | _ -> Alcotest.fail "row 1 has the wrong shape");
  Alcotest.(check int) "column length" 2
    (Array.length (Batch.column b "price"));
  let r = Batch.to_relation b in
  Alcotest.(check int) "relation cardinality" 2 (Relation.cardinality r);
  (* the checked constructor agrees with the inferred one *)
  let b2 = Batch.of_csv_string ~schema:schema_up "utc,price\n11.5,20.0\n" in
  Alcotest.(check int) "checked parse" 1 (Batch.rows b2)

let test_batch_validation () =
  match Batch.of_rows schema_up [ [| V.Num 11.5; V.Str "oops" |] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

(* ------------------------------- stream ------------------------------ *)

let test_stream_append_retract () =
  let set = paper_set () in
  let stream = Stream.create ~fdd:(compile_fdd set) set in
  let s0 = Stream.snapshot stream in
  Alcotest.(check int) "version 0" 0 s0.Stream.version;
  Alcotest.(check bool) "no certain side yet" true (s0.Stream.certain = None);
  (* 11.5 routes to both PCs, 12.4 to t2 only *)
  let b0 = Batch.of_csv_string "utc,price\n11.5,20.0\n12.4,99.0\n" in
  let info0, s1 =
    match Stream.append stream b0 with
    | Ok r -> r
    | Error e -> Alcotest.failf "append failed: %s" e
  in
  Alcotest.(check int) "batch id" 0 info0.Stream.batch_id;
  Alcotest.(check (list int)) "touched both PCs" [ 0; 1 ] info0.Stream.touched;
  Alcotest.(check (array int)) "per-PC delta" [| 1; 2 |] info0.Stream.delta;
  Alcotest.(check (array int)) "consumption" [| 1; 2 |] s1.Stream.consumed;
  Alcotest.(check (list (pair int int)))
    "residual budgets shrank" [ (49, 99); (73, 123) ]
    (freqs s1.Stream.residual);
  (match s1.Stream.certain with
  | Some r -> Alcotest.(check int) "certain rows" 2 (Relation.cardinality r)
  | None -> Alcotest.fail "append published no certain side");
  (* snapshot isolation: the pinned pre-append snapshot never moved *)
  Alcotest.(check int) "pinned version" 0 s0.Stream.version;
  Alcotest.(check (array int)) "pinned consumption" [| 0; 0 |] s0.Stream.consumed;
  (* a row off every predicate consumes nothing but lands certain-side *)
  let b1 = Batch.of_csv_string "utc,price\n20.0,1.0\n" in
  let info1, s2 =
    match Stream.append stream b1 with
    | Ok r -> r
    | Error e -> Alcotest.failf "open-universe append failed: %s" e
  in
  Alcotest.(check (list int)) "open-universe row touches nothing" []
    info1.Stream.touched;
  Alcotest.(check (array int)) "consumption unchanged" [| 1; 2 |]
    s2.Stream.consumed;
  (match s2.Stream.certain with
  | Some r -> Alcotest.(check int) "certain grew" 3 (Relation.cardinality r)
  | None -> Alcotest.fail "lost the certain side");
  (* retract the first batch: budget restored, its rows gone *)
  let info2, s3 =
    match Stream.retract stream ~batch_id:0 with
    | Ok r -> r
    | Error e -> Alcotest.failf "retract failed: %s" e
  in
  Alcotest.(check int) "retracted rows" 2 info2.Stream.rows;
  Alcotest.(check (array int)) "budget restored" [| 0; 0 |] s3.Stream.consumed;
  Alcotest.(check (list (pair int int)))
    "residual back to base" [ (50, 100); (75, 125) ]
    (freqs s3.Stream.residual);
  (match s3.Stream.certain with
  | Some r -> Alcotest.(check int) "survivor rows" 1 (Relation.cardinality r)
  | None -> Alcotest.fail "retract dropped the surviving batch");
  Alcotest.(check (list (pair int int)))
    "one live batch" [ (1, 1) ] (Stream.batches stream);
  (match Stream.retract stream ~batch_id:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double retract succeeded")

let test_stream_schema_mismatch () =
  let set = paper_set () in
  let stream = Stream.create ~fdd:(compile_fdd set) set in
  ignore (Stream.append stream (Batch.of_csv_string "utc,price\n11.5,20.0\n"));
  let v = Stream.snapshot stream in
  (match
     Stream.append stream (Batch.of_csv_string "humidity,light\n1.0,2.0\n")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched batch schema accepted");
  let v' = Stream.snapshot stream in
  Alcotest.(check int) "no version published on error" v.Stream.version
    v'.Stream.version

(* ------------------------------- cache ------------------------------- *)

let evictions () = Pc_obs.Registry.Counter.(get (make "cache.evictions"))

(* The meta of an entry that every batch touching PC 0 evicts. *)
let pc0 = { Cache.pcs = [ 0 ]; where_ = []; missing_only = true }

let test_cache_byte_cap () =
  Pc_obs.Registry.set_enabled true;
  let c = Cache.create ~capacity:1024 ~capacity_bytes:256 () in
  let before = evictions () in
  let big = String.make 100 'x' in
  Cache.store c ~meta:pc0 ~version:0 "k0" big;
  Cache.store c ~meta:pc0 ~version:0 "k1" big;
  Cache.store c ~meta:pc0 ~version:0 "k2" big;
  (* three ~102-byte entries exceed 256 bytes: FIFO drops the oldest *)
  Alcotest.(check bool) "bytes under cap" true (Cache.bytes c <= 256);
  Alcotest.(check int) "oldest-out" 2 (Cache.size c);
  Alcotest.(check (option string)) "k0 evicted" None (Cache.find c "k0");
  Alcotest.(check (option string)) "k2 kept" (Some big) (Cache.find c "k2");
  Alcotest.(check bool) "cache.evictions counted" true (evictions () > before)

let test_cache_delta_invalidation () =
  let c = Cache.create () in
  let meta ?(missing_only = false) pcs where_ =
    { Cache.pcs; where_; missing_only }
  in
  let chicago = [ Atom.cat_eq "branch" "Chicago" ] in
  let ny = [ Atom.cat_eq "branch" "New York" ] in
  Cache.store c ~meta:(meta [ 0 ] chicago) ~version:0 "q_pc" "r_pc";
  Cache.store c ~meta:(meta [ 1 ] chicago) ~version:0 "q_row" "r_row";
  Cache.store c ~meta:(meta [ 1 ] ny) ~version:0 "q_safe" "r_safe";
  Cache.store c ~meta:(meta ~missing_only:true [ 1 ] chicago) ~version:0 "q_miss" "r_miss";
  let schema =
    Schema.of_names [ ("branch", Schema.Categorical); ("price", Schema.Numeric) ]
  in
  let rows = Some (schema, [| [| V.Str "Chicago"; V.Num 50. |] |]) in
  (* the batch consumed PC 0 and its row is a Chicago row: the PC-scoped
     entry and the selection-matching entry go; the New-York entry and
     the missing-only entry (certain side invisible to it) survive *)
  let n = Cache.invalidate c ~version:1 ~touched:[ 0 ] ~rows in
  Alcotest.(check int) "two evictions" 2 n;
  Alcotest.(check (option string)) "pc overlap evicted" None (Cache.find c "q_pc");
  Alcotest.(check (option string)) "row match evicted" None (Cache.find c "q_row");
  Alcotest.(check (option string)) "disjoint entry survives" (Some "r_safe")
    (Cache.find c "q_safe");
  Alcotest.(check (option string)) "missing-only ignores certain rows"
    (Some "r_miss") (Cache.find c "q_miss");
  (* a retraction with no certain rows in hand: only PC overlap applies *)
  let n = Cache.invalidate c ~version:2 ~touched:[ 1 ] ~rows:None in
  Alcotest.(check int) "pc-only sweep" 2 n;
  Alcotest.(check int) "empty but for nothing" 0 (Cache.size c)

(* The hull prefilter must evict exactly what the row sweep evicts. *)
let price_schema =
  Schema.of_names [ ("branch", Schema.Categorical); ("price", Schema.Numeric) ]

let price_rows prices =
  Some
    ( price_schema,
      Array.of_list (List.map (fun p -> [| V.Str "Chicago"; V.Num p |]) prices) )

let low_price = Atom.between "price" 0. 1.

let sweep_evicts where_ rows =
  Cache_sweep.affected ~touched:[] ~rows
    { Cache.pcs = [ 1 ]; where_; missing_only = false }

let evicted_by where_ rows =
  let c = Cache.create () in
  Cache.store c ~meta:{ Cache.pcs = [ 1 ]; where_; missing_only = false } ~version:0 "q" "r";
  ignore (Cache.invalidate c ~version:1 ~touched:[] ~rows);
  Cache.find c "q" = None

let test_cache_absent_attr_first () =
  (* the price atom misses the hull, but the first atom names an
     attribute the batch lacks: the sweep raises on it, so it evicts *)
  let where_ = [ Atom.cat_eq "region" "west"; low_price ] in
  let rows = price_rows [ 50. ] in
  Alcotest.(check (pair bool bool))
    "sweep and cache evict" (true, true)
    (sweep_evicts where_ rows, evicted_by where_ rows)

let test_cache_miss_then_raise () =
  (* the out-of-hull atom comes first: the sweep stops on it before the
     raising atom, and evicts only once some row passes it *)
  let where_ = [ low_price; Atom.cat_eq "region" "west" ] in
  List.iter
    (fun (name, prices, evicts) ->
      let rows = price_rows prices in
      Alcotest.(check (pair bool bool))
        name (evicts, evicts)
        (sweep_evicts where_ rows, evicted_by where_ rows))
    [
      ("every row fails the first atom", [ 50.; 60. ], false);
      ("one row passes it", [ 50.; 0.5 ], true);
    ]

let test_cache_hull_miss_keeps_hit () =
  Pc_obs.Registry.set_enabled true;
  let row_tests () =
    Pc_obs.Registry.Counter.(get (make "cache.invalidate_row_tests"))
  in
  let c = Cache.create () in
  let where_ = [ Atom.between "price" 0. 10. ] in
  Cache.store c ~meta:{ Cache.pcs = [ 1 ]; where_; missing_only = false } ~version:0 "q" "r";
  let before = row_tests () in
  let n =
    Cache.invalidate c ~version:1 ~touched:[ 0 ] ~rows:(price_rows [ 50.; 60. ])
  in
  Alcotest.(check int) "nothing evicted" 0 n;
  Alcotest.(check (option string)) "hit kept" (Some "r") (Cache.find c "q");
  Alcotest.(check int) "no row test ran" before (row_tests ())

(* The stale-store race: a reply computed against a pre-batch snapshot
   must not enter the cache after the batch's invalidation sweep — it
   would be served byte-identical at the new version. The fence is the
   pinned snapshot version carried by [store] against the high-water
   version advanced by [invalidate]. *)
let test_cache_version_fence () =
  let c = Cache.create () in
  Cache.store c ~meta:pc0 ~version:0 "q_v0" "r_v0";
  Alcotest.(check (option string)) "fresh store lands" (Some "r_v0")
    (Cache.find c "q_v0");
  (* a batch consumes PC 0, publishes version 1 and sweeps *)
  ignore (Cache.invalidate c ~version:1 ~touched:[ 0 ] ~rows:None);
  Alcotest.(check (option string)) "swept" None (Cache.find c "q_v0");
  (* the in-flight reply pinned at version 0 arrives late: dropped *)
  Cache.store c ~meta:pc0 ~version:0 "q_stale" "r_stale";
  Alcotest.(check (option string)) "stale store fenced" None
    (Cache.find c "q_stale");
  (* a reply pinned at the published version stores normally *)
  Cache.store c ~meta:pc0 ~version:1 "q_v1" "r_v1";
  Alcotest.(check (option string)) "current store lands" (Some "r_v1")
    (Cache.find c "q_v1")

(* Steady store→invalidate churn keeps the table under both caps, so
   capacity eviction never runs — the bookkeeping queue must be
   compacted on its own or it grows for the life of the server. *)
let test_cache_queue_compaction () =
  let c = Cache.create () in
  for i = 1 to 10_000 do
    Cache.store c ~meta:pc0 ~version:(i - 1) (Printf.sprintf "k%d" i) "v";
    ignore (Cache.invalidate c ~version:i ~touched:[ 0 ] ~rows:None)
  done;
  Alcotest.(check int) "table empty" 0 (Cache.size c);
  Alcotest.(check bool)
    (Printf.sprintf "queue compacted (len %d)" (Cache.queue_length c))
    true
    (Cache.queue_length c <= 64)

(* [before_publish] is the invalidation seam: it must observe the batch
   [info] while the old snapshot is still the visible one. *)
let test_append_invalidates_before_publish () =
  let set = paper_set () in
  let stream = Stream.create ~fdd:(compile_fdd set) set in
  let seen_version = ref (-1) in
  (match
     Stream.append stream
       (Batch.of_csv_string "utc,price\n11.5,20.0\n")
       ~before_publish:(fun info ->
         Alcotest.(check int) "info carries the version to publish" 1
           info.Stream.version;
         seen_version := (Stream.snapshot stream).Stream.version)
   with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  Alcotest.(check int) "hook ran before the new snapshot was visible" 0
    !seen_version;
  Alcotest.(check int) "publish still happened" 1
    (Stream.snapshot stream).Stream.version;
  let seen_retract = ref (-1) in
  (match
     Stream.retract stream ~batch_id:0 ~before_publish:(fun _ ->
         seen_retract := (Stream.snapshot stream).Stream.version)
   with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  Alcotest.(check int) "retract hook pre-publish too" 1 !seen_retract

(* --------------------------- server wire ops -------------------------- *)

let constraints_text =
  "constraint chicago_cap:\n\
  \  branch = 'Chicago' => price in [0.0, 149.99], count [0, 5];\n\
   constraint newyork_cap:\n\
  \  branch = 'New York' => price in [0.0, 100.0], count [0, 10];\n"

let start ?(constraints = constraints_text) () =
  let srv = S.create { S.default_config with S.port = 0 } in
  (match S.load_dataset srv ~name:"default" ~constraints () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (srv, Thread.create S.run srv)

let stop (srv, th) =
  S.initiate_drain srv;
  Thread.join th

let req c line =
  match C.request c line with
  | Some reply -> (
      match J.parse reply with
      | Ok v -> (reply, v)
      | Error e -> Alcotest.failf "bad reply %S: %s" reply e)
  | None -> Alcotest.fail "connection closed instead of replying"

let ok v = match J.member "ok" v with Some (J.Bool b) -> b | _ -> false

let range v =
  match J.member "answer" v with
  | Some a -> (
      match
        ( Option.bind (J.member "lo" a) J.to_num,
          Option.bind (J.member "hi" a) J.to_num )
      with
      | Some lo, Some hi -> (lo, hi)
      | _ -> Alcotest.fail "answer without lo/hi")
  | None -> Alcotest.fail "reply without answer"

let test_server_append_invalidation () =
  Pc_obs.Registry.set_enabled true;
  let ((srv, _) as s) = start () in
  let c = C.connect ~host:"127.0.0.1" ~port:(S.port srv) in
  let q_chi = {|{"op":"bound","query":"SELECT SUM(price) WHERE branch = 'Chicago'"}|} in
  let q_ny = {|{"op":"bound","query":"SELECT COUNT(*) WHERE branch = 'New York'"}|} in
  let chi1, chi1v = req c q_chi in
  let ny1, _ = req c q_ny in
  (* both cached now: identical bytes on repeat *)
  let chi1', _ = req c q_chi in
  Alcotest.(check string) "warm repeat is a byte-identical hit" chi1 chi1';
  Pc_obs.Trace.reset ();
  Pc_obs.Trace.set_enabled true;
  let _, app =
    req c {|{"op":"append","csv":"branch,price\nChicago,50.0\n"}|}
  in
  Pc_obs.Trace.set_enabled false;
  Alcotest.(check bool) "append ok" true (ok app);
  (* the span reports how many entries the sweep tested row by row:
     the Chicago entry goes on its touched PC alone, the New-York entry
     takes the row test *)
  let span =
    List.find
      (fun s -> s.Pc_obs.Trace.name = "ingest.append")
      (Pc_obs.Trace.spans ())
  in
  Alcotest.(check (list (option string)))
    "row_tests and evicted on the ingest span"
    [ Some "1"; Some "1" ]
    (List.map
       (fun a -> List.assoc_opt a span.Pc_obs.Trace.attrs)
       [ "row_tests"; "evicted" ]);
  Alcotest.(check (option (float 1e-9)))
    "only the Chicago PC was touched" (Some 0.)
    (match J.member "touched" app with
    | Some (J.Arr [ t ]) -> J.to_num t
    | _ -> None);
  (* the New-York entry survived the delta: served from cache verbatim *)
  let ny2, _ = req c q_ny in
  Alcotest.(check string) "unaffected query still cached" ny1 ny2;
  (* the Chicago entry was evicted and recomputed: the certain row
     shifts the range by +50 while the missing budget drops 5 -> 4 *)
  let chi2, chi2v = req c q_chi in
  Alcotest.(check bool) "affected reply recomputed" true (chi1 <> chi2);
  let lo1, hi1 = range chi1v and lo2, hi2 = range chi2v in
  Alcotest.(check (float 1e-6)) "lo shifted by the appended row" (lo1 +. 50.) lo2;
  Alcotest.(check (float 1e-6)) "hi lost one budget row, gained the row"
    (hi1 -. 149.99 +. 50.) hi2;
  (* an explicit per-request deadline keeps the degradation contract
     even though the warm engine could answer exactly: on an
     overlapping set (no greedy fast path) timeout_ms 0 must still
     come back trivial, not an instant warm-engine exact *)
  let over =
    "constraint t1:\n\
    \  utc between 11.0 and 12.0 => price in [0.99, 129.99], count [50, 100];\n\
     constraint t2:\n\
    \  utc between 11.0 and 13.0 => price in [0.99, 149.99], count [75, 125];\n"
  in
  let _, l =
    req c
      (J.to_string
         (J.Obj
            [
              ("op", J.Str "load");
              ("name", J.Str "over");
              ("constraints", J.Str over);
            ]))
  in
  Alcotest.(check bool) "load over ok" true (ok l);
  let _, wz =
    req c {|{"op":"bound","query":"SELECT COUNT(*)","dataset":"over"}|}
  in
  Alcotest.(check (option string))
    "no-deadline request stays exact" (Some "exact")
    (Option.bind (J.member "provenance" wz) J.to_str);
  let _, tz =
    req c
      {|{"op":"bound","query":"SELECT COUNT(*)","dataset":"over","timeout_ms":0}|}
  in
  Alcotest.(check (option string))
    "clipped budget still degrades" (Some "trivial")
    (Option.bind (J.member "provenance" tz) J.to_str);
  (* retraction restores the original answer *)
  let _, ret = req c {|{"op":"retract","batch":0}|} in
  Alcotest.(check bool) "retract ok" true (ok ret);
  let _, chi3v = req c q_chi in
  let lo3, hi3 = range chi3v in
  Alcotest.(check (float 1e-6)) "lo restored" lo1 lo3;
  Alcotest.(check (float 1e-6)) "hi restored" hi1 hi3;
  C.close c;
  stop s

(* Load [constraints] as dataset [name] over a live connection. *)
let load c ~name constraints =
  let _, l =
    req c
      (J.to_string
         (J.Obj
            [
              ("op", J.Str "load");
              ("name", J.Str name);
              ("constraints", J.Str constraints);
            ]))
  in
  Alcotest.(check bool) ("load " ^ name) true (ok l)

let num_at path v =
  match
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some v) path
  with
  | Some n -> Option.value (J.to_num n) ~default:nan
  | None -> Alcotest.failf "reply without %s" (String.concat "." path)

let incremental v = J.member "incremental" v = Some (J.Bool true)

let provenance v = Option.bind (J.member "provenance" v) J.to_str

(* A warm reply's stats are measured, not assumed: the first COUNT bound
   on an overlapping set is the engine's cold LP solve, so it reports
   the pivots it took. *)
let test_server_warm_stats () =
  let ((srv, _) as s) = start () in
  let c = C.connect ~host:"127.0.0.1" ~port:(S.port srv) in
  load c ~name:"over"
    "constraint t1:\n\
    \  utc between 11.0 and 12.0 => price in [0.99, 129.99], count [50, 100];\n\
     constraint t2:\n\
    \  utc between 11.0 and 13.0 => price in [0.99, 149.99], count [75, 125];\n";
  let _, v =
    req c {|{"op":"bound","query":"SELECT COUNT(*)","dataset":"over"}|}
  in
  Alcotest.(check bool) "answered by the engine" true (incremental v);
  Alcotest.(check bool) "cold solve reports its pivots" true
    (num_at [ "stats"; "iters" ] v > 0.);
  C.close c;
  stop s

(* Five 2-D boxes whose COUNT lower side has a fractional LP optimum
   (3.5) above an integral one (4): the engine must branch and bound to
   answer exactly, and the exact reply is then cacheable. *)
let fractional_set =
  "constraint p0:\n\
  \  x between 2 and 4 and y between 1 and 2 => v in [0, 100], count [2, 2];\n\
   constraint p1:\n\
  \  x between 1 and 2 and y between 0 and 5 => v in [0, 100], count [2, 4];\n\
   constraint p2:\n\
  \  x between 5 and 8 and y between 1 and 4 => v in [0, 100], count [1, 3];\n\
   constraint p3:\n\
  \  x between 2 and 7 and y between 4 and 5 => v in [0, 100], count [1, 3];\n\
   constraint p4:\n\
  \  x between 4 and 6 and y between 0 and 3 => v in [0, 100], count [1, 2];\n"

let test_server_fractional_exact () =
  let ((srv, _) as s) = start () in
  let c = C.connect ~host:"127.0.0.1" ~port:(S.port srv) in
  load c ~name:"frac" fractional_set;
  let q = {|{"op":"bound","query":"SELECT COUNT(*)","dataset":"frac"}|} in
  let r1, v1 = req c q in
  Alcotest.(check bool) "answered by the engine" true (incremental v1);
  Alcotest.(check (option string)) "exact" (Some "exact") (provenance v1);
  Alcotest.(check (float 1e-6)) "integral lower bound" 4. (fst (range v1));
  let hits v = num_at [ "cache"; "hits" ] v in
  let _, st1 = req c {|{"op":"stats"}|} in
  let r2, _ = req c q in
  let _, st2 = req c {|{"op":"stats"}|} in
  Alcotest.(check string) "repeat is byte-identical" r1 r2;
  Alcotest.(check (float 0.)) "repeat is a cache hit" (hits st1 +. 1.) (hits st2);
  C.close c;
  stop s

(* ------------------------ bounds racing appends ----------------------- *)

(* Eight overlapping device bands with integer endpoints, and integer
   rows: every optimum is a sum of integers, so a warm re-solve and a
   cold solve agree bit for bit whatever order they add in. *)
let bands_text =
  String.concat ""
    (List.init 8 (fun i ->
         Printf.sprintf
           "constraint band%d:\n\
           \  device between %d and %d => light in [%d, %d], count [2, 40];\n"
           i (6 * i) ((6 * i) + 10) i (100 + i)))

(* each aggregate over the whole table, which every batch touches, and
   over device >= 30, which no batch row meets: those entries survive
   every append *)
let race_queries =
  Array.of_list
    (List.concat_map
       (fun agg -> [ "SELECT " ^ agg; "SELECT " ^ agg ^ " WHERE device >= 30" ])
       [ "COUNT(*)"; "SUM(light)"; "AVG(light)"; "MIN(light)"; "MAX(light)" ])

let race_batches =
  List.init 8 (fun b ->
      "device,light\n"
      ^ String.concat ""
          (List.init 3 (fun r ->
               Printf.sprintf "%d,%d\n" ((b + r) mod 6) (50 + r))))

let bound_line ?timeout_ms q =
  J.to_string
    (J.Obj
       ([ ("op", J.Str "bound"); ("query", J.Str q) ]
       @
       match timeout_ms with
       | Some ms -> [ ("timeout_ms", J.Num ms) ]
       | None -> []))

let append_line csv =
  J.to_string (J.Obj [ ("op", J.Str "append"); ("csv", J.Str csv) ])

(* what two servers on the same rows must agree on: the range with its
   exactness flags, and the rung that produced it *)
let answer_of v =
  ( J.to_string (Option.value (J.member "answer" v) ~default:J.Null),
    provenance v )

(* Four clients cycle COUNT/SUM/AVG/MIN/MAX while a fifth thread appends
   batches. Every request must answer ok, the cache must keep serving
   hits between batches, and afterwards every reply must equal a cold
   server's on the same constraints and the same batches. The cold
   requests carry a deadline, which keeps them off the warm engine: their
   COUNT and SUM answers are solved from scratch. *)
let test_bounds_race_appends () =
  let ((srv, _) as s) = start ~constraints:bands_text () in
  let port = S.port srv in
  let control = C.connect ~host:"127.0.0.1" ~port in
  let hits () =
    num_at [ "cache"; "hits" ] (snd (req control {|{"op":"stats"}|}))
  in
  let hits0 = hits () in
  let failures = Atomic.make 0 in
  let send c line =
    match Option.map J.parse (C.request c line) with
    | Some (Ok v) when ok v -> ()
    | _ -> Atomic.incr failures
  in
  let thread f =
    Thread.create
      (fun () ->
        let c = C.connect ~host:"127.0.0.1" ~port in
        f c;
        C.close c)
      ()
  in
  let ingester =
    thread (fun c ->
        List.iter
          (fun csv ->
            send c (append_line csv);
            Thread.delay 0.005)
          race_batches)
  in
  let client w =
    thread (fun c ->
        for i = 0 to 49 do
          let q = race_queries.((w + i) mod Array.length race_queries) in
          send c (bound_line q)
        done)
  in
  List.iter Thread.join (ingester :: List.init 4 client);
  Alcotest.(check int) "every request answered ok" 0 (Atomic.get failures);
  Alcotest.(check bool) "hits while batches streamed in" true (hits () > hits0);
  let warm =
    Array.map
      (fun q -> answer_of (snd (req control (bound_line q))))
      race_queries
  in
  C.close control;
  stop s;
  let ((cold_srv, _) as cold) = start ~constraints:bands_text () in
  let c = C.connect ~host:"127.0.0.1" ~port:(S.port cold_srv) in
  List.iter
    (fun csv ->
      let _, v = req c (append_line csv) in
      Alcotest.(check bool) "cold append" true (ok v))
    race_batches;
  Array.iteri
    (fun i q ->
      Alcotest.(check (pair string (option string)))
        q
        (answer_of (snd (req c (bound_line ~timeout_ms:3.6e6 q))))
        warm.(i))
    race_queries;
  C.close c;
  stop cold

(* --------------------- incremental ≡ from-scratch --------------------- *)

(* Random overlapping sets, then random append/retract schedules, and
   after EVERY operation: the warm engine's rebound must equal
   Bounds.bound on the snapshot's residual set, exactness flags
   included. Half the sets are 1-D intervals on [x] (the shape that
   defeats the disjoint fast path and exercises the LP); their rows are
   totally unimodular, so the LP optimum is always integral. The other
   half are 2-D boxes on [x] and [y], whose LP optimum can be
   fractional, so the engine's branch-and-bound step is exercised too. *)

let random_overlap_set rng n =
  let interval () =
    let lo = Pc_util.Rng.uniform rng ~lo:0. ~hi:(6. *. float_of_int n) in
    let w = Pc_util.Rng.uniform rng ~lo:20. ~hi:50. in
    (lo, lo +. w)
  in
  let two_d = Pc_util.Rng.int rng 2 = 0 in
  let pcs =
    List.init n (fun i ->
        let x_lo, x_hi = interval () in
        let box =
          if two_d then
            let y_lo, y_hi = interval () in
            [ Atom.between "x" x_lo x_hi; Atom.between "y" y_lo y_hi ]
          else [ Atom.between "x" x_lo x_hi ]
        in
        let kl = Pc_util.Rng.int rng 3 in
        mk
          ~name:(Printf.sprintf "p%d" i)
          box
          [ ("v", I.closed 0. 100.) ]
          (kl, kl + 1 + Pc_util.Rng.int rng 8))
  in
  Pc_set.make pcs

let schema_xyv =
  Schema.of_names
    [ ("x", Schema.Numeric); ("y", Schema.Numeric); ("v", Schema.Numeric) ]

let answers_close warm scratch =
  let rel a b =
    Float.abs (a -. b)
    <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
  in
  match (warm, scratch) with
  | Some (Bounds.Range r1), Bounds.Range r2 ->
      rel r1.Range.lo r2.Range.lo && rel r1.Range.hi r2.Range.hi
      && r1.Range.lo_exact = r2.Range.lo_exact
      && r1.Range.hi_exact = r2.Range.hi_exact
  | Some Bounds.Empty, Bounds.Empty -> true
  | Some Bounds.Infeasible, Bounds.Infeasible -> true
  | _ -> false

let prop_incremental_matches_scratch =
  QCheck.Test.make
    ~name:"warm rebound ≡ from-scratch bound on every schedule prefix"
    ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let n = 3 + Pc_util.Rng.int rng 8 in
      let set = random_overlap_set rng n in
      let fdd = compile_fdd set in
      let query =
        if Pc_util.Rng.int rng 2 = 0 then Q.count () else Q.sum "v"
      in
      match Incremental.create ~fdd set query with
      | None -> true (* out of scope: the server takes the full path *)
      | Some eng ->
          let stream = Stream.create ~fdd set in
          let opts =
            { Bounds.default_opts with Bounds.strategy = Cells.Fdd }
          in
          let coord () =
            V.Num
              (Pc_util.Rng.uniform rng ~lo:(-10.)
                 ~hi:((6. *. float_of_int n) +. 60.))
          in
          let steps = 2 + Pc_util.Rng.int rng 6 in
          let ok = ref true in
          (* step 0 is the engine's cold solve at zero consumption *)
          for step = 0 to steps do
            let live = Stream.batches stream in
            (if step = 0 then ()
             else if live <> [] && Pc_util.Rng.int rng 4 = 0 then
               let id, _ = List.nth live (Pc_util.Rng.int rng (List.length live)) in
               match Stream.retract stream ~batch_id:id with
               | Ok _ -> ()
               | Error e -> Alcotest.failf "retract: %s" e
             else
               let rows =
                 List.init
                   (1 + Pc_util.Rng.int rng 3)
                   (fun _ ->
                     let x = coord () in
                     let y = coord () in
                     [| x; y; V.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:100.) |])
               in
               match Stream.append stream (Batch.of_rows schema_xyv rows) with
               | Ok _ -> ()
               | Error e -> Alcotest.failf "append: %s" e);
            let snap = Stream.snapshot stream in
            let warm = Incremental.rebound eng ~consumed:snap.Stream.consumed in
            let scratch = Bounds.bound ~opts snap.Stream.residual query in
            ok := !ok && answers_close warm scratch
          done;
          !ok)

(* A residual set built by [Pc_set.map_freqs] (as [Stream] builds every
   snapshot's) answers bit for bit as [Pc_set.make] of the same PCs,
   range, exactness, provenance and every stat but [elapsed], under the
   default decomposition and the server's FDD one, on disjoint sets
   (the greedy path) and overlapping ones, for all five aggregates. It
   shares the base set's table, and so does a stream snapshot's
   residual. *)
let prop_residual_shares_table =
  let module R = Pc_util.Rng in
  let disjoint_set rng n =
    Pc_set.make
      (List.init n (fun i ->
           let lo = 10. *. float_of_int i in
           let kl = R.int rng 3 in
           mk
             ~name:(Printf.sprintf "d%d" i)
             [ Atom.between "x" lo (lo +. 5. +. R.uniform rng ~lo:0. ~hi:4.) ]
             [ ("v", I.closed (R.uniform rng ~lo:0. ~hi:20.) (R.uniform rng ~lo:30. ~hi:100.)) ]
             (kl, kl + 1 + R.int rng 8)))
  in
  let same_outcome (a : Bounds.outcome) (b : Bounds.outcome) =
    let bits = Int64.bits_of_float in
    (match (a.Bounds.answer, b.Bounds.answer) with
    | Bounds.Range x, Bounds.Range y ->
        bits x.Range.lo = bits y.Range.lo
        && bits x.Range.hi = bits y.Range.hi
        && x.Range.lo_exact = y.Range.lo_exact
        && x.Range.hi_exact = y.Range.hi_exact
    | x, y -> x = y)
    && { a.Bounds.stats with Bounds.elapsed = 0. }
       = { b.Bounds.stats with Bounds.elapsed = 0. }
  in
  QCheck.Test.make ~name:"map_freqs residual ≡ Pc_set.make, sharing the table"
    ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R.create seed in
      let n = 2 + R.int rng 6 in
      let base =
        if R.bool rng then disjoint_set rng n else random_overlap_set rng n
      in
      let fdd = compile_fdd base in
      let consumed =
        Array.init n (fun _ -> if R.int rng 3 = 0 then 0 else R.int rng 10)
      in
      let residual =
        Pc_set.map_freqs
          (fun j (pc : Pc.t) ->
            let ku = max 0 (pc.Pc.freq_hi - consumed.(j)) in
            (min ku (max 0 (pc.Pc.freq_lo - consumed.(j))), ku))
          base
      in
      let fresh = Pc_set.make (Pc_set.pcs residual) in
      let where_ =
        let lo = R.uniform rng ~lo:(-5.) ~hi:40. in
        [ Atom.between "x" lo (lo +. R.uniform rng ~lo:1. ~hi:60.) ]
      in
      let queries =
        [
          Q.count ~where_ ();
          Q.sum ~where_ "v";
          Q.avg ~where_ "v";
          Q.min_ ~where_ "v";
          Q.max_ ~where_ "v";
        ]
      in
      let fdd_opts = { Bounds.default_opts with Bounds.strategy = Cells.Fdd } in
      let agree q =
        same_outcome
          (Bounds.bound_budgeted residual q)
          (Bounds.bound_budgeted fresh q)
        && same_outcome
             (Bounds.bound_budgeted ~opts:fdd_opts ~fdd residual q)
             (Bounds.bound_budgeted ~opts:fdd_opts ~fdd fresh q)
      in
      let stream = Stream.create ~fdd base in
      let batch =
        Batch.of_rows schema_xyv
          [ [| V.Num (R.uniform rng ~lo:0. ~hi:40.); V.Num 0.; V.Num 50. |] ]
      in
      let streamed =
        match Stream.append stream batch with
        | Ok (_, snap) -> snap.Stream.residual
        | Error e -> Alcotest.failf "append: %s" e
      in
      List.for_all agree queries
      && Pc_set.table residual == Pc_set.table base
      && Pc_set.table streamed == Pc_set.table base)

(* Random tables and batches: the hull-prefiltered [Cache.invalidate]
   evicts the same keys, and returns the same count, as the row sweep.
   Selections mix numeric and categorical atoms, including atoms on an
   attribute the batch schema lacks or holds at the other kind, in any
   order; rows carry NaN, ±inf and -0., and now and then a value of the
   wrong kind. Successive sweeps alternate two schemas, so compiled
   selections are reused and recompiled. *)
let prop_invalidate_matches_sweep =
  let module R = Pc_util.Rng in
  let schemas =
    [|
      Schema.of_names
        [ ("x", Schema.Numeric); ("y", Schema.Numeric); ("c", Schema.Categorical) ];
      Schema.of_names
        [ ("c", Schema.Categorical); ("x", Schema.Numeric); ("z", Schema.Numeric) ];
    |]
  in
  let words = [| "a"; "b"; "c" |] in
  let finite = [| -1.; -0.; 0.; 1.; 2. |] in
  QCheck.Test.make ~name:"hull-prefiltered invalidate ≡ row sweep" ~count:500
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R.create seed in
      let pick a = R.choose rng a and one_in n = R.int rng n = 0 in
      let subset () = List.filter (fun _ -> R.bool rng) [ 0; 1; 2; 3; 4 ] in
      let interval () =
        let v = pick finite and w = pick finite in
        let lo = pick [| I.Neg_inf; I.Closed v; I.Open v |]
        and hi = pick [| I.Pos_inf; I.Closed w; I.Open w |] in
        Option.value (I.make lo hi) ~default:I.full
      in
      let atom () =
        let a = pick [| "x"; "y"; "z"; "c"; "absent" |] in
        match R.int rng 5 with
        | 0 | 1 -> Atom.Num_range (a, interval ())
        | 2 -> Atom.Cat_eq (a, pick words)
        | 3 -> Atom.Cat_neq (a, pick words)
        | _ ->
            let ws = List.filter (fun _ -> R.bool rng) (Array.to_list words) in
            if R.bool rng then Atom.Cat_in (a, ws) else Atom.Cat_not_in (a, ws)
      in
      let meta () =
        {
          Cache.pcs = subset ();
          where_ = List.init (R.int rng 4) (fun _ -> atom ());
          missing_only = one_in 5;
        }
      in
      let value (a : Schema.attr) =
        match a.Schema.kind with
        | _ when one_in 40 -> if R.bool rng then V.Str "a" else V.Num 1.
        | Schema.Numeric ->
            V.Num
              (match R.int rng 4 with
              | 0 | 1 -> pick [| nan; infinity; neg_infinity; -0.; 0. |]
              | 2 -> pick finite
              | _ -> R.uniform rng ~lo:(-3.) ~hi:4.)
        | Schema.Categorical -> V.Str (pick words)
      in
      let c = Cache.create () in
      let live = ref [] and next = ref 0 in
      let ok = ref true in
      for version = 1 to 1 + R.int rng 4 do
        for _ = 0 to R.int rng 8 do
          let key = Printf.sprintf "k%d" !next and m = meta () in
          incr next;
          Cache.store c ~meta:m ~version:(version - 1) key "v";
          live := (key, m) :: !live
        done;
        let touched = if one_in 3 then [] else subset () in
        let rows =
          if one_in 5 then None
          else
            let schema = schemas.(version mod 2) in
            let attrs = Array.of_list (Schema.attrs schema) in
            Some
              ( schema,
                Array.init (R.int rng 5) (fun _ ->
                    if one_in 40 then [| V.Str "a" |] else Array.map value attrs) )
        in
        let hit (_, m) = Cache_sweep.affected ~touched ~rows m in
        let victims, kept = List.partition hit !live in
        let n = Cache.invalidate c ~version ~touched ~rows in
        ok :=
          !ok
          && n = List.length victims
          && List.for_all (fun (k, _) -> Cache.find c k = None) victims
          && List.for_all (fun (k, _) -> Cache.find c k <> None) kept;
        live := kept
      done;
      !ok)

let () =
  Alcotest.run "pc_ingest"
    [
      ( "batch",
        [
          tc "csv roundtrip" `Quick test_batch_roundtrip;
          tc "kind validation" `Quick test_batch_validation;
        ] );
      ( "stream",
        [
          tc "append/retract with snapshot isolation" `Quick
            test_stream_append_retract;
          tc "schema mismatch publishes nothing" `Quick
            test_stream_schema_mismatch;
          tc "before_publish runs pre-swap" `Quick
            test_append_invalidates_before_publish;
        ] );
      ( "cache",
        [
          tc "byte-cap FIFO eviction" `Quick test_cache_byte_cap;
          tc "delta-scoped invalidation" `Quick test_cache_delta_invalidation;
          tc "absent attribute first still evicts" `Quick
            test_cache_absent_attr_first;
          tc "out-of-hull atom before a raising one" `Quick
            test_cache_miss_then_raise;
          tc "hull miss keeps the hit" `Quick test_cache_hull_miss_keeps_hit;
          tc "stale-store version fence" `Quick test_cache_version_fence;
          tc "queue compaction under churn" `Quick test_cache_queue_compaction;
        ] );
      ( "server",
        [
          tc "append evicts only affected entries" `Quick
            test_server_append_invalidation;
          tc "warm reply reports its solver stats" `Quick
            test_server_warm_stats;
          tc "fractional LP answered exact and cached" `Quick
            test_server_fractional_exact;
          tc "bounds racing appends match a cold server" `Quick
            test_bounds_race_appends;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_incremental_matches_scratch;
          QCheck_alcotest.to_alcotest prop_invalidate_matches_sweep;
          QCheck_alcotest.to_alcotest prop_residual_shares_table;
        ] );
    ]
