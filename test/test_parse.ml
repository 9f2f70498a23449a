open Pc_parse
module Q = Pc_query.Query
module Atom = Pc_predicate.Atom
module I = Pc_interval.Interval

let tc = Alcotest.test_case

(* ------------------------------ lexer ------------------------------ *)

let test_lexer_basics () =
  let tokens = Lexer.tokenize "select sum(price) where utc >= 10.5" in
  Alcotest.(check int) "token count" 10 (List.length tokens);
  Alcotest.(check bool) "ends with eof" true
    (List.nth tokens 9 = Lexer.Eof);
  Alcotest.(check bool) "number lexed" true (List.mem (Lexer.Number 10.5) tokens)

let test_lexer_strings () =
  match Lexer.tokenize "'New York' 'it''s'" with
  | [ Lexer.String a; Lexer.String b; Lexer.Eof ] ->
      Alcotest.(check string) "simple" "New York" a;
      Alcotest.(check string) "escaped quote" "it's" b
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_operators () =
  match Lexer.tokenize "<= >= < > = <> != =>" with
  | [ Lexer.Le; Lexer.Ge; Lexer.Lt; Lexer.Gt; Lexer.Eq; Lexer.Neq; Lexer.Neq;
      Lexer.Eq; Lexer.Gt; Lexer.Eof ] ->
      ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_comments_and_negatives () =
  match Lexer.tokenize "-- a comment\n-3.5 x" with
  | [ Lexer.Number n; Lexer.Ident x; Lexer.Eof ] ->
      Alcotest.(check (float 0.)) "negative number" (-3.5) n;
      Alcotest.(check string) "ident" "x" x
  | _ -> Alcotest.fail "comment/negative lexing"

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (Lexer.tokenize "'oops");
       false
     with Failure _ -> true);
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Lexer.tokenize "a & b");
       false
     with Failure _ -> true)

(* --------------------------- query parser --------------------------- *)

let test_parse_count () =
  let q = Query_parser.parse "SELECT COUNT(*)" in
  Alcotest.(check bool) "count" true (q.Q.agg = Q.Count);
  Alcotest.(check bool) "no predicate" true (q.Q.where_ = [])

let test_parse_sum_where () =
  let q =
    Query_parser.parse
      "select sum(price) from sales where utc >= 10 and branch = 'Chicago';"
  in
  Alcotest.(check bool) "sum" true (q.Q.agg = Q.Sum "price");
  Alcotest.(check int) "two atoms" 2 (List.length q.Q.where_);
  Alcotest.(check bool) "cat atom" true
    (List.mem (Atom.cat_eq "branch" "Chicago") q.Q.where_)

let test_parse_between_in () =
  let q =
    Query_parser.parse
      "SELECT AVG(v) WHERE t BETWEEN 2 AND 7 AND tag IN ('a', 'b')"
  in
  Alcotest.(check bool) "avg" true (q.Q.agg = Q.Avg "v");
  Alcotest.(check bool) "between" true
    (List.mem (Atom.between "t" 2. 7.) q.Q.where_);
  Alcotest.(check bool) "in list" true
    (List.mem (Atom.Cat_in ("tag", [ "a"; "b" ])) q.Q.where_)

let test_parse_all_aggs () =
  List.iter
    (fun (text, expected) ->
      let q = Query_parser.parse text in
      Alcotest.(check bool) text true (q.Q.agg = expected))
    [
      ("SELECT MIN(x)", Q.Min "x");
      ("SELECT MAX(x)", Q.Max "x");
      ("SELECT AVG(x)", Q.Avg "x");
      ("select count(*)", Q.Count);
    ]

let test_parse_query_errors () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (try
           ignore (Query_parser.parse text);
           false
         with Failure _ -> true))
    [
      "SELECT FROG(x)";
      "SELECT SUM(price) WHERE";
      "SELECT SUM(price) WHERE x";
      "SELECT SUM(price) trailing junk";
      "SELECT COUNT(price)";
      "WHERE x = 1";
      "SELECT AVG(v) WHERE t BETWEEN 7 AND 2";
    ]

let test_parse_predicate () =
  let p = Query_parser.parse_predicate "x <= 5 and y > 3" in
  Alcotest.(check int) "two atoms" 2 (List.length p);
  let p = Query_parser.parse_predicate "true" in
  Alcotest.(check bool) "tautology" true (p = [])

(* ---------------------------- pc parser ----------------------------- *)

let chicago_dsl =
  {|
-- the most expensive Chicago product costs 149.99
constraint chicago_cap:
  branch = 'Chicago' => price in [0.0, 149.99], count [0, 5];
|}

let test_parse_pc () =
  let pc = Pc_parser.parse_one chicago_dsl in
  Alcotest.(check string) "name" "chicago_cap" pc.Pc_core.Pc.name;
  Alcotest.(check int) "kl" 0 pc.Pc_core.Pc.freq_lo;
  Alcotest.(check int) "ku" 5 pc.Pc_core.Pc.freq_hi;
  Alcotest.(check bool) "pred" true
    (pc.Pc_core.Pc.pred = [ Atom.cat_eq "branch" "Chicago" ]);
  Alcotest.(check bool) "value range" true
    (I.equal (Pc_core.Pc.value_interval pc "price") (I.closed 0. 149.99))

let test_parse_pc_file () =
  let text =
    chicago_dsl
    ^ {|
constraint everything true => none, count [10, 100];
constraint multi x between 0 and 5 and tag <> 'bad'
  => v in [0, 1] and w in [-2, 2], count [0, 7];
|}
  in
  let pcs = Pc_parser.parse text in
  Alcotest.(check int) "three constraints" 3 (List.length pcs);
  let everything = List.nth pcs 1 in
  Alcotest.(check bool) "tautology pred" true (everything.Pc_core.Pc.pred = []);
  Alcotest.(check bool) "no value bounds" true (everything.Pc_core.Pc.values = []);
  let multi = List.nth pcs 2 in
  Alcotest.(check int) "two value ranges" 2 (List.length multi.Pc_core.Pc.values);
  Alcotest.(check int) "two pred atoms" 2 (List.length multi.Pc_core.Pc.pred)

let test_parse_pc_errors () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (try
           ignore (Pc_parser.parse text);
           false
         with Failure _ -> true))
    [
      "constraint x true => none, count [5, 2];";  (* kl > ku: Pc.make rejects *)
      "constraint x true => none, count [0.5, 2];";  (* fractional count *)
      "constraint x true => none count [0, 2];";  (* missing comma *)
      "constraint x true => v in [3, 1], count [0, 2];";  (* inverted range *)
      "constraint x => none, count [0, 2];";  (* missing predicate *)
    ]

let test_pc_roundtrip () =
  let original = Pc_parser.parse_one chicago_dsl in
  let reparsed = Pc_parser.parse_one (Pc_parser.to_dsl original) in
  Alcotest.(check string) "name preserved" original.Pc_core.Pc.name
    reparsed.Pc_core.Pc.name;
  Alcotest.(check bool) "pred preserved" true
    (Pc_predicate.Pred.equal original.Pc_core.Pc.pred reparsed.Pc_core.Pc.pred);
  Alcotest.(check bool) "values preserved" true
    (I.equal
       (Pc_core.Pc.value_interval original "price")
       (Pc_core.Pc.value_interval reparsed "price"))

let prop_query_roundtrip =
  (* render a random query to text, parse it back, and compare evaluation
     on random tuples *)
  let gen =
    QCheck.Gen.(
      let* n_atoms = 0 -- 3 in
      let* atoms =
        list_repeat n_atoms
          (let* lo = float_bound_inclusive 50. in
           let* w = float_bound_inclusive 20. in
           let* attr = oneofl [ "x"; "y" ] in
           return (attr, lo, lo +. w))
      in
      return atoms)
  in
  QCheck.Test.make ~name:"parsed queries evaluate like built queries" ~count:100
    (QCheck.make gen) (fun atoms ->
      let where_ = List.map (fun (a, lo, hi) -> Atom.between a lo hi) atoms in
      let built = Q.sum ~where_ "x" in
      let text =
        "SELECT SUM(x)"
        ^
        match atoms with
        | [] -> ""
        | _ ->
            " WHERE "
            ^ String.concat " AND "
                (List.map
                   (fun (a, lo, hi) -> Printf.sprintf "%s BETWEEN %.6f AND %.6f" a lo hi)
                   atoms)
      in
      let parsed = Query_parser.parse text in
      let schema =
        Pc_data.Schema.of_names
          [ ("x", Pc_data.Schema.Numeric); ("y", Pc_data.Schema.Numeric) ]
      in
      let rng = Pc_util.Rng.create 99 in
      let ok = ref true in
      for _ = 1 to 30 do
        let row =
          [|
            Pc_data.Value.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:80.);
            Pc_data.Value.Num (Pc_util.Rng.uniform rng ~lo:0. ~hi:80.);
          |]
        in
        if
          Pc_predicate.Pred.eval schema built.Q.where_ row
          <> Pc_predicate.Pred.eval schema parsed.Q.where_ row
        then ok := false
      done;
      !ok && parsed.Q.agg = built.Q.agg)

(* Printing a PC and parsing it back must give the same PC, bit for bit:
   a value cap that came back even one ulp narrower would make the
   reloaded set's SUM upper bound unsound, and an open end that came
   back closed would make a partition overlap itself. Closed, open,
   half-open and ray ranges over doubles %g used to truncate;
   categorical =, <>, in and not in over words with quotes and '|' in
   them. *)
let prop_pc_dsl_roundtrip =
  let gen_range =
    QCheck.Gen.(
      let* a = Doubles.gen and* b = Doubles.gen in
      return (Float.min a b, Float.max a b))
  in
  let gen_num_atom attr =
    QCheck.Gen.(
      let* lo, hi = gen_range in
      let* lo_ep = oneofl [ I.Closed lo; I.Open lo; I.Neg_inf ]
      and* hi_ep = oneofl [ I.Closed hi; I.Open hi; I.Pos_inf ] in
      oneofl
        [
          Atom.between attr lo hi;
          Atom.num_eq attr lo;
          Atom.Num_range
            ( attr,
              match I.make lo_ep hi_ep with
              | Some iv when not (I.equal iv I.full) -> iv
              | _ -> I.point lo );
        ])
  in
  let gen_word =
    QCheck.Gen.oneofl [ "Chicago"; "New York"; "x"; "a_b"; "7"; "x|y"; "O'Hare"; "" ]
  in
  let gen_cat_atom attr =
    QCheck.Gen.(
      let gen_words = map (List.sort_uniq compare) (list_size (1 -- 3) gen_word) in
      oneof
        [
          map (fun w -> Atom.cat_eq attr w) gen_word;
          map (fun w -> Atom.Cat_neq (attr, w)) gen_word;
          map (fun ws -> Atom.Cat_in (attr, ws)) gen_words;
          map (fun ws -> Atom.Cat_not_in (attr, ws)) gen_words;
        ])
  in
  let gen_pc =
    QCheck.Gen.(
      let* num = list_size (0 -- 2) (oneofl [ "a"; "b" ]) in
      let num = List.sort_uniq compare num in
      let* num_atoms = flatten_l (List.map gen_num_atom num) in
      let* cat = bool in
      let* cat_atoms = if cat then map (fun a -> [ a ]) (gen_cat_atom "c") else return [] in
      let* values =
        flatten_l
          (List.map
             (fun attr -> map (fun (lo, hi) -> (attr, I.closed lo hi)) gen_range)
             [ "v"; "w" ])
      in
      let* n_values = 0 -- 2 in
      let* kl = 0 -- 50 and* dk = 0 -- 50 in
      return
        (Pc_core.Pc.make ~name:"p" ~pred:(num_atoms @ cat_atoms)
           ~values:(List.filteri (fun i _ -> i < n_values) values)
           ~freq:(kl, kl + dk) ()))
  in
  let bits = Int64.bits_of_float in
  let same_interval a b =
    I.equal a b
    && bits (I.lo_float a) = bits (I.lo_float b)
    && bits (I.hi_float a) = bits (I.hi_float b)
  in
  let same_atom x y =
    match (x, y) with
    | Atom.Num_range (a, i), Atom.Num_range (b, j) -> a = b && same_interval i j
    | _ -> Atom.equal x y
  in
  QCheck.Test.make ~name:"to_dsl then parse is the identity" ~count:500
    (QCheck.make ~print:Pc_parser.to_dsl gen_pc) (fun pc ->
      let back = Pc_parser.parse_one (Pc_parser.to_dsl pc) in
      List.length pc.Pc_core.Pc.pred = List.length back.Pc_core.Pc.pred
      && List.for_all2 same_atom pc.Pc_core.Pc.pred back.Pc_core.Pc.pred
      && List.length pc.Pc_core.Pc.values = List.length back.Pc_core.Pc.values
      && List.for_all2
           (fun (a, i) (b, j) -> a = b && same_interval i j)
           pc.Pc_core.Pc.values back.Pc_core.Pc.values
      && pc.Pc_core.Pc.freq_lo = back.Pc_core.Pc.freq_lo
      && pc.Pc_core.Pc.freq_hi = back.Pc_core.Pc.freq_hi)

(* Regression: a Corr-PC partition on a float attribute has half-open
   buckets [lo, hi). They used to print as [between lo and hi], which
   reads back closed: the reloaded buckets overlapped at every edge and
   the set was no longer disjoint. *)
let test_float_partition_roundtrip () =
  let rel = Pc_synth.Sensor.generate (Pc_util.Rng.create 3) ~rows:400 in
  let pcs = Pc_core.Generate.corr_partition rel ~attrs:[ "time" ] ~n:12 () in
  Alcotest.(check bool) "generated set is disjoint" true
    (Pc_core.Pc_set.is_disjoint (Pc_core.Pc_set.make pcs));
  let back =
    Pc_parser.parse (String.concat "\n" (List.map Pc_parser.to_dsl pcs))
  in
  Alcotest.(check bool) "parses back equal" true (back = pcs);
  Alcotest.(check (list string)) "prints back identical"
    (List.map Pc_parser.to_dsl pcs)
    (List.map Pc_parser.to_dsl back);
  Alcotest.(check bool) "reloaded set is disjoint" true
    (Pc_core.Pc_set.is_disjoint (Pc_core.Pc_set.make back))

(* Two numeric atoms on one attribute meet in one range when they
   overlap and stay as written when they do not. *)
let test_conj_meets_ranges () =
  let where_ text = (Query_parser.parse ("SELECT COUNT(*) WHERE " ^ text)).Q.where_ in
  let check name expected text =
    Alcotest.(check bool) name true (List.equal Atom.equal expected (where_ text))
  in
  check "half-open"
    [ Atom.Num_range ("x", I.make_exn (I.Closed 1.) (I.Open 5.)); Atom.cat_eq "c" "k" ]
    "x >= 1 AND c = 'k' AND x < 5";
  check "narrowed" [ Atom.between "x" 2. 3. ] "x BETWEEN 0 AND 3 AND x >= 2";
  check "disjoint kept" [ Atom.less_than "x" 1.; Atom.greater_than "x" 2. ]
    "x < 1 AND x > 2"

(* [not in] used to print as [a <> 'x|y'], which reads back as the
   wider region [a <> "x|y"]: a reloaded summary then let rows with
   [a = 'x'] satisfy the predicate. *)
let test_not_in_roundtrip () =
  let pc =
    Pc_core.Pc.make ~name:"p"
      ~pred:[ Atom.Cat_not_in ("branch", [ "x"; "y" ]) ]
      ~values:[] ~freq:(0, 3) ()
  in
  let text = Pc_parser.to_dsl pc in
  Alcotest.(check string) "printed" "constraint p branch not in ('x', 'y') => none, count [0, 3];" text;
  let back = Pc_parser.parse_one text in
  Alcotest.(check bool) "parses back to the same atom" true
    (List.equal Atom.equal pc.Pc_core.Pc.pred back.Pc_core.Pc.pred);
  let q = Pc_parse.Query_parser.parse "SELECT COUNT(*) WHERE branch NOT IN ('x')" in
  Alcotest.(check bool) "query side" true
    (List.equal Atom.equal q.Pc_query.Query.where_ [ Atom.Cat_not_in ("branch", [ "x" ]) ])

let () =
  Alcotest.run "pc_parse"
    [
      ( "lexer",
        [
          tc "basics" `Quick test_lexer_basics;
          tc "strings" `Quick test_lexer_strings;
          tc "operators" `Quick test_lexer_operators;
          tc "comments/negatives" `Quick test_lexer_comments_and_negatives;
          tc "errors" `Quick test_lexer_errors;
        ] );
      ( "query",
        [
          tc "count" `Quick test_parse_count;
          tc "sum with where" `Quick test_parse_sum_where;
          tc "between/in" `Quick test_parse_between_in;
          tc "all aggregates" `Quick test_parse_all_aggs;
          tc "errors" `Quick test_parse_query_errors;
          tc "bare predicate" `Quick test_parse_predicate;
          QCheck_alcotest.to_alcotest prop_query_roundtrip;
        ] );
      ( "pc_dsl",
        [
          tc "single constraint" `Quick test_parse_pc;
          tc "file" `Quick test_parse_pc_file;
          tc "errors" `Quick test_parse_pc_errors;
          tc "roundtrip" `Quick test_pc_roundtrip;
          tc "not in roundtrip" `Quick test_not_in_roundtrip;
          tc "float partition roundtrip" `Quick test_float_partition_roundtrip;
          tc "conjunction meets ranges" `Quick test_conj_meets_ranges;
          QCheck_alcotest.to_alcotest prop_pc_dsl_roundtrip;
        ] );
    ]
