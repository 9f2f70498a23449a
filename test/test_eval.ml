(* Row evaluation: compiled predicates, column scans, Query.eval and
   Generate.rand_pcs against the by-name evaluator they replaced
   (test/oracle/eval_oracle.ml), answers and exceptions alike. *)

module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module Schema = Pc_data.Schema
module Relation = Pc_data.Relation
module V = Pc_data.Value
module Q = Pc_query.Query
module O = Eval_oracle

let tc = Alcotest.test_case

(* Either the answer or the exception a row test raised. *)
let outcome f = match f () with v -> Ok v | exception (Not_found | Invalid_argument _ as e) -> Error e

(* ---------------------------- generators ---------------------------- *)

let names = [ "a"; "b"; "c"; "d" ]

(* "z" is never in a schema; the others may be absent or of the other
   kind. *)
let attr_gen = QCheck.Gen.oneofl ("z" :: names)
let num_pool = [ -2.; -1.; -0.; 0.; 0.5; 1.; 2. ]
let str_pool = [ "p"; "q"; "r" ]

let num_gen =
  QCheck.Gen.(
    frequency
      [ (8, oneofl num_pool); (1, return Float.nan); (1, oneofl [ infinity; neg_infinity ]) ])

let interval_gen =
  QCheck.Gen.(
    let* lo = oneof [ return I.Neg_inf; map (fun x -> I.Closed x) (oneofl num_pool);
                      map (fun x -> I.Open x) (oneofl num_pool) ]
    and* hi = oneof [ return I.Pos_inf; map (fun x -> I.Closed x) (oneofl num_pool);
                      map (fun x -> I.Open x) (oneofl num_pool) ] in
    return (Option.value (I.make lo hi) ~default:I.full))

let atom_gen =
  QCheck.Gen.(
    let* a = attr_gen in
    oneof
      [
        map (fun iv -> Atom.Num_range (a, iv)) interval_gen;
        map (fun s -> Atom.Cat_eq (a, s)) (oneofl str_pool);
        map (fun s -> Atom.Cat_neq (a, s)) (oneofl str_pool);
        map (fun ss -> Atom.Cat_in (a, ss)) (list_size (0 -- 2) (oneofl str_pool));
        map (fun ss -> Atom.Cat_not_in (a, ss)) (list_size (0 -- 2) (oneofl str_pool));
      ])

let pred_gen = QCheck.Gen.(list_size (0 -- 4) atom_gen)

let schema_gen =
  QCheck.Gen.(
    let* k = 1 -- 4 in
    let* kinds = list_repeat k (oneofl [ Schema.Numeric; Schema.Categorical ]) in
    let* names = shuffle_l names in
    return (Schema.of_names (List.combine (List.filteri (fun i _ -> i < k) names) kinds)))

let value_gen = function
  | Schema.Numeric -> QCheck.Gen.map (fun x -> V.Num x) num_gen
  | Schema.Categorical -> QCheck.Gen.map (fun s -> V.Str s) (QCheck.Gen.oneofl str_pool)

let relation_gen schema =
  QCheck.Gen.(
    let* n = frequency [ (1, return 0); (6, 1 -- 40) ] in
    let row = flatten_a (Array.of_list (List.map (fun (a : Schema.attr) -> value_gen a.Schema.kind) (Schema.attrs schema))) in
    map (fun rows -> Relation.create schema rows) (list_repeat n row))

(* Tuples that need not fit the schema: any length, any kinds. *)
let loose_tuple_gen =
  QCheck.Gen.(
    array_size (0 -- 5)
      (oneof [ value_gen Schema.Numeric; value_gen Schema.Categorical ]))

let case_gen =
  QCheck.Gen.(
    let* schema = schema_gen in
    let* rel = relation_gen schema in
    let* p = pred_gen in
    return (rel, p))

let print_case (rel, p) =
  Format.asprintf "%a@.WHERE %s" Relation.pp rel (Pred.to_string p)

(* ---------------------------- properties ---------------------------- *)

let prop_compile_rows =
  QCheck.Test.make ~name:"Pred.compile = by-name eval, row by row" ~count:500
    (QCheck.make ~print:print_case case_gen) (fun (rel, p) ->
      let schema = Relation.schema rel in
      let test = Pred.compile schema p in
      List.for_all
        (fun row -> outcome (fun () -> test row) = outcome (fun () -> O.pred_eval schema p row))
        (Array.to_list (Relation.tuples rel)))

let prop_compile_loose =
  QCheck.Test.make ~name:"Atom.compile = by-name eval on tuples that do not fit" ~count:500
    (QCheck.make
       QCheck.Gen.(triple schema_gen atom_gen (list_size (1 -- 8) loose_tuple_gen)))
    (fun (schema, atom, rows) ->
      let test = Atom.compile schema atom in
      List.for_all
        (fun row -> outcome (fun () -> test row) = outcome (fun () -> O.atom_eval schema atom row))
        rows)

(* The scan in blocks of every size, against the oracle's matching row
   indices; an exception must be the one the oracle meets first. *)
let prop_scanner =
  QCheck.Test.make ~name:"Pred.scanner = by-name eval, in blocks" ~count:500
    (QCheck.make ~print:(fun ((r, p), b) -> Printf.sprintf "%s\nblock %d" (print_case (r, p)) b)
       QCheck.Gen.(pair case_gen (1 -- 45)))
    (fun ((rel, p), block) ->
      let schema = Relation.schema rel in
      let n = Relation.cardinality rel in
      let want =
        outcome (fun () ->
            List.filter
              (fun i -> O.pred_eval schema p (Relation.get rel i))
              (List.init n Fun.id))
      in
      let got =
        outcome (fun () ->
            let scan = Pred.scanner rel p in
            let rows = Array.make block (-1) and acc = ref [] and from = ref 0 in
            while !from < n do
              let k = scan !from rows in
              for j = 0 to k - 1 do
                acc := rows.(j) :: !acc
              done;
              from := !from + block
            done;
            List.rev !acc)
      in
      want = got)

let agg_gen =
  QCheck.Gen.(
    let* a = attr_gen in
    oneofl [ Q.Count; Q.Sum a; Q.Avg a; Q.Min a; Q.Max a ])

let bits = Option.map Int64.bits_of_float

let prop_query_eval =
  QCheck.Test.make ~name:"Query.eval = selection then fold, bit for bit" ~count:1000
    (QCheck.make
       ~print:(fun ((r, p), agg) -> print_case (r, p) ^ "\n" ^ Q.to_string (Q.make ~where_:p agg))
       QCheck.Gen.(pair case_gen agg_gen))
    (fun ((rel, p), agg) ->
      let q = Q.make ~where_:p agg in
      outcome (fun () -> bits (Q.eval rel q)) = outcome (fun () -> bits (O.query_eval rel q)))

(* The certain side of a bound as it was computed before [Query.fold]:
   the selection, its count, and the aggregate's [Stat] over the
   selection's column when some row is selected. *)
let prop_query_fold =
  QCheck.Test.make ~name:"Query.fold = selection, count and Stat, bit for bit" ~count:1000
    (QCheck.make
       ~print:(fun ((r, p), agg) -> print_case (r, p) ^ "\n" ^ Q.to_string (Q.make ~where_:p agg))
       QCheck.Gen.(pair case_gen agg_gen))
    (fun ((rel, p), agg) ->
      let q = Q.make ~where_:p agg in
      let reference () =
        let sel = Relation.filter (O.pred_eval (Relation.schema rel) p) rel in
        let n = Relation.cardinality sel in
        let column a = Relation.column sel a in
        ( n,
          match agg with
          | Q.Count -> 0.
          | Q.Sum _ | Q.Avg _ when n = 0 -> 0.
          | Q.Min _ when n = 0 -> infinity
          | Q.Max _ when n = 0 -> neg_infinity
          | Q.Sum a | Q.Avg a -> Pc_util.Stat.sum (column a)
          | Q.Min a -> Pc_util.Stat.minimum (column a)
          | Q.Max a -> Pc_util.Stat.maximum (column a) )
      in
      let bits (n, x) = (n, Int64.bits_of_float x) in
      outcome (fun () -> bits (Q.fold rel q)) = outcome (fun () -> bits (reference ())))

(* Numeric relations with ties and signed zeros; a categorical
   attribute rides along. A NaN makes both sides raise (its ranges have
   NaN ends), so it is rare enough that most cases answer. *)
let rand_case_gen =
  QCheck.Gen.(
    let schema =
      Schema.of_names
        [ ("x", Schema.Numeric); ("y", Schema.Numeric); ("s", Schema.Categorical);
          ("v", Schema.Numeric) ]
    in
    let num =
      frequency
        [ (1000, map (fun k -> V.Num (float_of_int k /. 4.)) (-8 -- 8));
          (100, return (V.Num (-0.))); (1, return (V.Num Float.nan)) ]
    in
    let row = map (fun (x, y, s, v) -> [| x; y; V.Str s; v |]) (quad num num (oneofl str_pool) num) in
    let* n = frequency [ (1, return 0); (8, 1 -- 60) ] in
    let* rows = list_repeat n row in
    let* pcs = 0 -- 10 in
    let* seed = int_bound 10_000 in
    let* width =
      oneof
        [ return None;
          map (fun (a, b) -> Some (Float.min a b, Float.max a b)) (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)) ]
    in
    return (Relation.create schema rows, pcs, seed, width))

let prop_rand_pcs =
  QCheck.Test.make ~name:"rand_pcs = row-by-row rand_pcs, bit for bit" ~count:500
    (QCheck.make
       ~print:(fun (r, n, seed, _) -> Format.asprintf "%a@.n %d seed %d" Relation.pp r n seed)
       rand_case_gen)
    (fun (rel, n, seed, width_frac) ->
      let run f =
        outcome (fun () ->
            Marshal.to_string
              (f ?value_attrs:None ?width_frac (Pc_util.Rng.create seed) rel ~attrs:[ "x"; "y" ]
                 ~n ())
              [])
      in
      run Pc_core.Generate.rand_pcs = run O.rand_pcs)

(* ------------------------------ units ------------------------------ *)

let schema = Schema.of_names [ ("x", Schema.Numeric); ("s", Schema.Categorical) ]

let rel =
  Relation.create schema
    (List.map (fun (x, s) -> [| V.Num x; V.Str s |]) [ (3., "p"); (1., "q"); (2., "p") ])

(* The cache is the relation's own: a column handed out is a copy,
   whether it was taken before the cache was filled or after. *)
let test_column_copy () =
  let q = Q.sum ~where_:[ Atom.cat_eq "s" "p" ] "x" in
  let before = (Relation.min_max rel "x", Q.eval rel q) in
  let early = Relation.column rel "x" in
  Array.fill early 0 (Array.length early) 100.;
  ignore (Relation.min_max rel "x");
  let late = Relation.column rel "x" in
  Array.fill late 0 (Array.length late) (-100.);
  Alcotest.(check bool) "min_max and eval unchanged" true
    (before = (Relation.min_max rel "x", Q.eval rel q));
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "range" (Some (1., 3.))
    (Relation.min_max rel "x")

(* An absent attribute raises only on a row: an empty relation answers. *)
let test_raise_timing () =
  let empty = Relation.take 0 rel in
  let test = Pred.compile schema [ Atom.between "nope" 0. 1. ] in
  Alcotest.(check (option (float 0.))) "COUNT over nothing" (Some 0.)
    (Q.eval empty (Q.count ~where_:[ Atom.cat_eq "nope" "p" ] ()));
  Alcotest.check_raises "raised on the row" Not_found (fun () ->
      ignore (test (Relation.get rel 0)));
  Alcotest.check_raises "raised by the scan" Not_found (fun () ->
      ignore (Q.eval rel (Q.count ~where_:[ Atom.cat_eq "nope" "p" ] ())))

let () =
  Alcotest.run "pc_eval"
    [
      ( "units",
        [
          tc "column is a copy" `Quick test_column_copy;
          tc "raise timing" `Quick test_raise_timing;
        ] );
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compile_rows; prop_compile_loose; prop_scanner; prop_query_eval; prop_query_fold; prop_rand_pcs ] );
    ]
