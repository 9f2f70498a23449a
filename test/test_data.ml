open Pc_data

let tc = Alcotest.test_case

let sales_schema =
  Schema.of_names
    [ ("utc", Schema.Numeric); ("branch", Schema.Categorical); ("price", Schema.Numeric) ]

let row utc branch price = [| Value.Num utc; Value.Str branch; Value.Num price |]

let sales =
  Relation.create sales_schema
    [
      row 1. "Chicago" 3.02;
      row 2. "New York" 6.71;
      row 3. "Chicago" 18.99;
      row 4. "Trenton" 1.50;
      row 5. "Chicago" 149.99;
    ]

let test_value () =
  Alcotest.(check (float 0.)) "as_num" 3. (Value.as_num (Value.num 3.));
  Alcotest.(check string) "as_str" "x" (Value.as_str (Value.str "x"));
  Alcotest.(check bool) "of_string num" true (Value.of_string "4.5" = Value.Num 4.5);
  Alcotest.(check bool) "of_string str" true (Value.of_string "abc" = Value.Str "abc");
  Alcotest.check_raises "as_num on str"
    (Invalid_argument "Value.as_num: \"x\" is not numeric") (fun () ->
      ignore (Value.as_num (Value.str "x")));
  Alcotest.(check int) "compare num str" (-1) (Value.compare (Value.num 1.) (Value.str "a"))

let test_schema () =
  Alcotest.(check int) "arity" 3 (Schema.arity sales_schema);
  Alcotest.(check int) "index" 2 (Schema.index sales_schema "price");
  Alcotest.(check bool) "mem" true (Schema.mem sales_schema "branch");
  Alcotest.(check bool) "not mem" false (Schema.mem sales_schema "nope");
  Alcotest.(check (list string)) "numeric names" [ "utc"; "price" ]
    (Schema.numeric_names sales_schema);
  Alcotest.check_raises "duplicate attrs"
    (Invalid_argument "Schema.make: duplicate attribute \"a\"") (fun () ->
      ignore (Schema.of_names [ ("a", Schema.Numeric); ("a", Schema.Numeric) ]))

let test_schema_concat () =
  let a = Schema.of_names [ ("x", Schema.Numeric); ("y", Schema.Numeric) ] in
  let b = Schema.of_names [ ("y", Schema.Numeric); ("z", Schema.Numeric) ] in
  let c = Schema.concat a b in
  Alcotest.(check (list string)) "renamed" [ "x"; "y"; "y_r"; "z" ] (Schema.names c)

let test_relation_basics () =
  Alcotest.(check int) "cardinality" 5 (Relation.cardinality sales);
  Alcotest.(check (float 0.)) "value access" 18.99 (Relation.number sales 2 "price");
  Alcotest.(check (list string)) "distinct" [ "Chicago"; "New York"; "Trenton" ]
    (Relation.distinct_strings sales "branch");
  match Relation.min_max sales "price" with
  | Some (lo, hi) ->
      Alcotest.(check (float 0.)) "min" 1.50 lo;
      Alcotest.(check (float 0.)) "max" 149.99 hi
  | None -> Alcotest.fail "expected min_max"

let test_relation_kind_mismatch () =
  Alcotest.check_raises "numeric col with string"
    (Invalid_argument "Relation: \"x\" in numeric attribute utc") (fun () ->
      ignore
        (Relation.create sales_schema [ [| Value.Str "x"; Value.Str "c"; Value.Num 1. |] ]))

let test_filter_partition_union () =
  let chicago =
    Relation.filter
      (fun r -> Value.as_str r.(1) = "Chicago")
      sales
  in
  Alcotest.(check int) "filter" 3 (Relation.cardinality chicago);
  let yes, no = Relation.partition (fun r -> Value.as_num r.(2) > 5.) sales in
  Alcotest.(check int) "partition yes" 3 (Relation.cardinality yes);
  Alcotest.(check int) "partition no" 2 (Relation.cardinality no);
  Alcotest.(check int) "union restores" 5 (Relation.cardinality (Relation.union yes no))

let test_group_by () =
  let groups = Relation.group_by sales "branch" in
  Alcotest.(check int) "three groups" 3 (List.length groups);
  let first_key, first_rel = List.hd groups in
  Alcotest.(check bool) "first-occurrence order" true (first_key = Value.Str "Chicago");
  Alcotest.(check int) "group size" 3 (Relation.cardinality first_rel)

let test_sort_take_drop () =
  let sorted =
    Relation.sort_by
      (fun a b -> Float.compare (Value.as_num b.(2)) (Value.as_num a.(2)))
      sales
  in
  Alcotest.(check (float 0.)) "desc sorted" 149.99 (Relation.number sorted 0 "price");
  Alcotest.(check int) "take" 2 (Relation.cardinality (Relation.take 2 sales));
  Alcotest.(check int) "drop" 3 (Relation.cardinality (Relation.drop 2 sales));
  Alcotest.(check int) "take beyond" 5 (Relation.cardinality (Relation.take 99 sales))

let test_csv_roundtrip () =
  let text = Csv.write_string sales in
  let back = Csv.read_string text in
  Alcotest.(check int) "cardinality" (Relation.cardinality sales)
    (Relation.cardinality back);
  Alcotest.(check bool) "schema inferred" true
    (Schema.equal (Relation.schema back) sales_schema);
  Alcotest.(check (float 0.)) "values preserved" 149.99 (Relation.number back 4 "price")

let test_csv_quoting () =
  let schema =
    Schema.of_names [ ("name", Schema.Categorical); ("v", Schema.Numeric) ]
  in
  let rel =
    Relation.create schema
      [
        [| Value.Str "has,comma"; Value.Num 1. |];
        [| Value.Str "has\"quote"; Value.Num 2. |];
        [| Value.Str "has\nnewline"; Value.Num 3. |];
      ]
  in
  let back = Csv.read_string (Csv.write_string rel) in
  Alcotest.(check int) "cardinality" 3 (Relation.cardinality back);
  Alcotest.(check string) "comma" "has,comma" (Value.as_str (Relation.value back 0 "name"));
  Alcotest.(check string) "quote" "has\"quote" (Value.as_str (Relation.value back 1 "name"));
  Alcotest.(check string) "newline" "has\nnewline"
    (Value.as_str (Relation.value back 2 "name"))

let test_csv_errors () =
  (try
     ignore (Csv.read_string "a,b\n1");
     Alcotest.fail "expected failure"
   with Failure msg ->
     Alcotest.(check bool) "mentions record" true
       (String.length msg > 0));
  try
    ignore (Csv.read_string "a\n\"unterminated");
    Alcotest.fail "expected failure"
  with Failure _ -> ()

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_csv_nonfinite () =
  (* NaN/infinity would silently poison every downstream bound; the loader
     must reject them, naming the record and column *)
  let schema = Schema.of_names [ ("x", Schema.Numeric); ("y", Schema.Numeric) ] in
  List.iter
    (fun bad ->
      try
        ignore (Csv.read_string ~schema ("x,y\n1.0,2.0\n3.0," ^ bad ^ "\n"));
        Alcotest.fail ("accepted non-finite value " ^ bad)
      with Failure msg ->
        Alcotest.(check bool) ("names the column for " ^ bad) true
          (contains_sub msg "column \"y\"");
        Alcotest.(check bool) ("names the record for " ^ bad) true
          (contains_sub msg "record 3"))
    [ "nan"; "-nan"; "inf"; "-inf"; "infinity" ];
  (* ordinary extreme-but-finite values still load *)
  let ok = Csv.read_string ~schema "x,y\n1.0,-1.7e308\n" in
  Alcotest.(check (float 0.)) "finite extreme kept" (-1.7e308)
    (Relation.number ok 0 "y")

let prop_csv_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 30)
        (pair (float_bound_inclusive 1000.) (string_size ~gen:printable (1 -- 8))))
  in
  QCheck.Test.make ~name:"csv roundtrips arbitrary relations" ~count:100
    (QCheck.make gen) (fun rows ->
      let schema =
        Schema.of_names [ ("n", Schema.Numeric); ("s", Schema.Categorical) ]
      in
      (* avoid strings that parse as floats switching inferred kinds:
         supply the schema explicitly on read *)
      let rel =
        Relation.create schema
          (List.map (fun (n, s) -> [| Value.Num n; Value.Str s |]) rows)
      in
      let back = Csv.read_string ~schema (Csv.write_string rel) in
      Relation.cardinality back = Relation.cardinality rel
      && List.for_all2
           (fun (n, s) i ->
             Float.abs (Relation.number back i "n" -. n) < 1e-6
             && Value.as_str (Relation.value back i "s") = s)
           rows
           (List.init (List.length rows) Fun.id))

(* Writing a relation and reading it back gives the same doubles, bit
   for bit: %.12g used to round 0.1 + 0.2 to 0.3 and 1e15 + 1 to 1e15,
   so a reloaded CSV summarised to narrower constraints. *)
let prop_csv_bit_exact =
  QCheck.Test.make ~name:"csv write then read is bit-exact" ~count:300
    (QCheck.make
       ~print:(fun xs -> String.concat " " (List.map (Printf.sprintf "%h") xs))
       QCheck.Gen.(list_size (1 -- 20) Doubles.gen))
    (fun xs ->
      let schema = Schema.of_names [ ("x", Schema.Numeric) ] in
      let rel =
        Relation.create schema (List.map (fun x -> [| Value.Num x |]) xs)
      in
      let back = Csv.read_string ~schema (Csv.write_string rel) in
      Relation.cardinality back = List.length xs
      && List.for_all2
           (fun x i -> Doubles.bit_equal x (Relation.number back i "x"))
           xs
           (List.init (List.length xs) Fun.id))

(* The one-pass reader against the one it replaced (test/oracle/
   csv_oracle.ml): random texts with padded and quoted fields (commas,
   newlines, CRs and escaped quotes inside), CRs outside quotes, blank
   lines, CRLF endings, numbers, words, non-finite and empty fields in
   any column, wrong record widths and stray quotes, digit strings (up
   to 17 digits, so both sides of the reader's 15-digit integer path,
   with signs, leading zeros, [_] separators and hex), read with no
   schema (kind inference) and with a schema that fits the header or
   not. Each must give the same relation (kinds, and every value bit
   for bit) or raise the same exception with the same message. *)
let csv_text_gen =
  let open QCheck.Gen in
  let plain =
    oneofl
      [ "1"; " 2.5"; "-0"; "1e3 "; "0x1p3"; "nan"; "inf"; "-infinity"; ""; " "; "x";
        "y z"; "Chicago"; "12abc"; "3,"; "_1" ]
  in
  let digits =
    let run = map (String.concat "") (list_size (1 -- 17) (map string_of_int (0 -- 9))) in
    oneof
      [
        run;
        map (fun d -> "-" ^ d) run;
        map (fun d -> "+" ^ d) run;
        map (fun d -> "00" ^ d) run;
        map (fun d -> "-0" ^ d) run;
        map (fun d -> d ^ "_0") run;
        map (fun d -> "0x" ^ d) run;
        oneofl [ "0"; "-0"; "-"; "--1"; "000000000000000"; "999999999999999"; "1000000000000000";
                 "-9999999999999999"; "12345678901234567" ];
      ]
  in
  let quoted =
    map
      (fun body -> "\"" ^ body ^ "\"")
      (oneofl [ ""; "a,b"; "two\nlines"; "say \"\"hi\"\""; "4.5"; " 7 "; "cr\rin"; "\"\"" ])
  in
  let field =
    frequency
      [
        (8, plain);
        (4, digits);
        (2, quoted);
        (1, map2 (fun a b -> a ^ b) plain quoted);
        (1, map (fun f -> f ^ "\r") plain);
        (1, return "\"");
      ]
  in
  let names = oneofl [ "a"; " b"; "c "; "a" ] in
  let record width = map (String.concat ",") (list_repeat width field) in
  let line width =
    frequency
      [
        (8, record width);
        (1, (1 -- 4) >>= record);
        (1, oneofl [ ""; "\r"; "\"\"" ]);
      ]
  in
  (1 -- 3) >>= fun width ->
  pair (list_repeat width names)
    (list_size (0 -- 6) (line width))
  >>= fun (header, lines) ->
  map2
    (fun eol trailing ->
      String.concat eol (String.concat "," header :: lines) ^ if trailing then eol else "")
    (oneofl [ "\n"; "\r\n" ]) bool

let csv_schema_gen =
  QCheck.Gen.(
    opt
      (map
         (fun attrs -> Schema.of_names attrs)
         (oneofl
            [
              [ ("a", Schema.Numeric) ];
              [ ("a", Schema.Categorical) ];
              [ ("a", Schema.Numeric); ("b", Schema.Categorical) ];
              [ ("a", Schema.Categorical); ("b", Schema.Numeric) ];
              [ ("a", Schema.Numeric); ("b", Schema.Numeric); ("c", Schema.Numeric) ];
              [ ("a", Schema.Categorical); ("b", Schema.Categorical); ("c", Schema.Numeric) ];
            ])))

(* A relation as text: its kinds, and every value, numbers in hex. *)
let relation_text rel =
  let schema = Relation.schema rel in
  String.concat ","
    (List.map
       (fun (a : Schema.attr) ->
         a.Schema.name ^ if a.Schema.kind = Schema.Numeric then ":n" else ":c")
       (Schema.attrs schema))
  ^ "\n"
  ^ String.concat "\n"
      (Array.to_list
         (Array.map
            (fun row ->
              String.concat ","
                (Array.to_list
                   (Array.map
                      (function
                        | Value.Num x -> Printf.sprintf "%h" x
                        | Value.Str s -> Printf.sprintf "%S" s)
                      row)))
            (Relation.tuples rel)))

let prop_csv_matches_oracle =
  let outcome read =
    match read () with
    | rel -> "ok " ^ relation_text rel
    | exception e -> "raised " ^ Printexc.to_string e
  in
  QCheck.Test.make ~name:"one-pass csv reader ≡ the oracle reader" ~count:3000
    (QCheck.make
       ~print:(fun (text, _) -> Printf.sprintf "%S" text)
       (QCheck.Gen.pair csv_text_gen csv_schema_gen))
    (fun (text, schema) ->
      outcome (fun () -> Csv.read_string ?schema text)
      = outcome (fun () -> Csv_oracle.read_string ?schema text))

let () =
  Alcotest.run "pc_data"
    [
      ("value", [ tc "basics" `Quick test_value ]);
      ( "schema",
        [ tc "basics" `Quick test_schema; tc "concat" `Quick test_schema_concat ] );
      ( "relation",
        [
          tc "basics" `Quick test_relation_basics;
          tc "kind mismatch" `Quick test_relation_kind_mismatch;
          tc "filter/partition/union" `Quick test_filter_partition_union;
          tc "group_by" `Quick test_group_by;
          tc "sort/take/drop" `Quick test_sort_take_drop;
        ] );
      ( "csv",
        [
          tc "roundtrip" `Quick test_csv_roundtrip;
          tc "quoting" `Quick test_csv_quoting;
          tc "errors" `Quick test_csv_errors;
          tc "non-finite rejected" `Quick test_csv_nonfinite;
          QCheck_alcotest.to_alcotest prop_csv_roundtrip;
          QCheck_alcotest.to_alcotest prop_csv_bit_exact;
          QCheck_alcotest.to_alcotest prop_csv_matches_oracle;
        ] );
    ]
