(* Observability layer: span tracer, metrics registry, JSON validator.

   Tracing and histogram recording are global switches, so every test
   that flips them restores the disabled default before returning —
   test order must not matter. *)

module Trace = Pc_obs.Trace
module Registry = Pc_obs.Registry
module Json = Pc_obs.Json

let with_tracing f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

let with_metrics f =
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) f

(* ---- tracer ---- *)

let test_disabled_is_transparent () =
  Trace.set_enabled false;
  Trace.reset ();
  let r = Trace.with_span ~name:"ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans ()))

let test_nesting_depths () =
  with_tracing (fun () ->
      Trace.with_span ~name:"outer" (fun () ->
          Trace.with_span ~name:"mid" (fun () ->
              Trace.with_span ~name:"inner" (fun () -> ()));
          Trace.with_span ~name:"mid2" (fun () -> ()));
      let spans = Trace.spans () in
      let depth name =
        (List.find (fun (s : Trace.span) -> s.Trace.name = name) spans)
          .Trace.depth
      in
      Alcotest.(check int) "spans" 4 (List.length spans);
      Alcotest.(check int) "outer depth" 0 (depth "outer");
      Alcotest.(check int) "mid depth" 1 (depth "mid");
      Alcotest.(check int) "inner depth" 2 (depth "inner");
      Alcotest.(check int) "mid2 depth" 1 (depth "mid2");
      List.iter
        (fun (s : Trace.span) ->
          Alcotest.(check bool)
            (s.Trace.name ^ " non-negative duration")
            true
            (s.Trace.dur_ns >= 0L))
        spans)

let test_span_closed_on_raise () =
  with_tracing (fun () ->
      (try Trace.with_span ~name:"boom" (fun () -> failwith "x")
       with Failure _ -> ());
      match Trace.spans () with
      | [ s ] ->
          Alcotest.(check string) "recorded despite raise" "boom" s.Trace.name
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_add_attr () =
  with_tracing (fun () ->
      Trace.with_span ~name:"s" (fun () -> Trace.add_attr "k" "v");
      match Trace.spans () with
      | [ s ] ->
          Alcotest.(check (list (pair string string)))
            "attr attached"
            [ ("k", "v") ]
            s.Trace.attrs
      | _ -> Alcotest.fail "expected 1 span")

let test_chrome_json_valid () =
  with_tracing (fun () ->
      Trace.with_span ~name:"a" ~attrs:[ ("weird", "quote\"back\\slash") ]
        (fun () -> Trace.with_span ~name:"b" (fun () -> ()));
      let json = Trace.to_chrome_json () in
      match Json.parse json with
      | Ok (Json.Arr [ a; b ]) ->
          let str e k = Option.bind (Json.member k e) Json.to_str in
          Alcotest.(check (list (option string))) "spans in start order"
            [ Some "a"; Some "b" ]
            [ str a "name"; str b "name" ];
          Alcotest.(check (option string)) "attr decodes"
            (Some "quote\"back\\slash")
            (Option.bind (Json.member "args" a) (fun args -> str args "weird"))
      | Ok _ -> Alcotest.fail "expected two events"
      | Error msg -> Alcotest.failf "chrome trace JSON invalid: %s" msg)

(* [Bounds]' own stages record spans nested under the [bound] span: the
   region build of the general path and the greedy path. *)
let test_bound_stage_spans () =
  let pc name lo hi =
    Pc_core.Pc.make ~name
      ~pred:[ Pc_predicate.Atom.between "x" lo hi ]
      ~values:[ ("v", Pc_interval.Interval.closed 0. 10.) ]
      ~freq:(0, 5) ()
  in
  let overlapping = Pc_core.Pc_set.make [ pc "a" 0. 10.; pc "b" 5. 15. ] in
  let disjoint = Pc_core.Pc_set.make [ pc "a" 0. 10.; pc "c" 20. 30. ] in
  let query = Pc_query.Query.sum ~where_:[ Pc_predicate.Atom.between "x" 2. 25. ] "v" in
  with_tracing (fun () ->
      ignore (Pc_core.Bounds.bound overlapping query);
      ignore (Pc_core.Bounds.bound disjoint query);
      let spans = Trace.spans () in
      let named n = List.filter (fun (s : Trace.span) -> s.Trace.name = n) spans in
      let inside (s : Trace.span) (b : Trace.span) =
        b.Trace.depth < s.Trace.depth
        && b.Trace.t0_ns <= s.Trace.t0_ns
        && Int64.add s.Trace.t0_ns s.Trace.dur_ns <= Int64.add b.Trace.t0_ns b.Trace.dur_ns
      in
      List.iter
        (fun name ->
          match named name with
          | [ s ] ->
              Alcotest.(check bool)
                (name ^ " nests under bound")
                true
                (List.exists (inside s) (named "bound"))
          | l -> Alcotest.failf "expected one %s span, got %d" name (List.length l))
        [ "bound.regions"; "bound.greedy" ])

(* ---- registry ---- *)

let test_counters () =
  let c = Registry.Counter.make "test.counter" in
  Registry.Counter.clear c;
  Registry.Counter.incr c;
  Registry.Counter.add c 41;
  Alcotest.(check int) "accumulates" 42 (Registry.Counter.get c);
  let c' = Registry.Counter.make "test.counter" in
  Alcotest.(check int) "registration is idempotent" 42 (Registry.Counter.get c');
  Alcotest.(check bool)
    "listed in registry" true
    (List.mem_assoc "test.counter" (Registry.counters ()));
  Registry.Counter.clear c

let test_histogram_basics () =
  let h = Registry.Histogram.make "test.hist" in
  Registry.Histogram.clear h;
  Registry.Histogram.observe_ns h 1000.;
  Alcotest.(check int) "disabled: not recorded" 0 (Registry.Histogram.count h);
  with_metrics (fun () ->
      List.iter
        (fun v -> Registry.Histogram.observe_ns h v)
        [ 100.; 200.; 400.; 800.; 100_000. ];
      Alcotest.(check int) "count" 5 (Registry.Histogram.count h);
      let p50 = Registry.Histogram.percentile_ns h 50. in
      Alcotest.(check int)
        "p50 lands in the bucket of the exact median"
        (Registry.Histogram.bucket_of_ns 400.)
        (Registry.Histogram.bucket_of_ns p50));
  Registry.Histogram.clear h

(* Bucket-resolution accuracy contract, checked against
   Pc_util.Stat.percentile. Stat interpolates between the two order
   statistics bracketing rank p/100*(n-1); the histogram answers with a
   representative of the bucket holding its nearest-rank sample, which
   lies between those same two order statistics. So the estimate's
   bucket must fall inside the bracketing stats' bucket range — and
   when that range is a single bucket (the dense-histogram regime), the
   estimate is within one bucket of the exact percentile. *)
let histogram_percentile_prop =
  QCheck.Test.make ~name:"histogram percentile brackets Stat.percentile"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 80) (float_range 1. 1e9))
        (float_range 0. 100.))
    (fun (samples, p) ->
      let h = Registry.Histogram.make "test.hist.prop" in
      Registry.Histogram.clear h;
      Registry.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Registry.set_enabled false;
          Registry.Histogram.clear h)
        (fun () ->
          List.iter (fun v -> Registry.Histogram.observe_ns h v) samples;
          let est = Registry.Histogram.percentile_ns h p in
          let exact = Pc_util.Stat.percentile (Array.of_list samples) p in
          let ys = Array.of_list samples in
          Array.sort compare ys;
          let n = Array.length ys in
          let r = p /. 100. *. float_of_int (n - 1) in
          let lo = min (n - 1) (int_of_float (Float.floor r)) in
          let hi = min (n - 1) (int_of_float (Float.ceil r)) in
          let be = Registry.Histogram.bucket_of_ns est in
          let blo = Registry.Histogram.bucket_of_ns ys.(lo) in
          let bhi = Registry.Histogram.bucket_of_ns ys.(hi) in
          let bx = Registry.Histogram.bucket_of_ns exact in
          blo <= be && be <= bhi
          && (bhi > blo || abs (be - bx) <= 1)))

(* Exact extremes ride alongside the log2 buckets: min/max/mean are not
   bucket-quantized, while the percentile semantics stay untouched. *)
let test_histogram_exact_extremes () =
  let h = Registry.Histogram.make "test.hist.extremes" in
  Registry.Histogram.clear h;
  Alcotest.(check int) "empty min is 0" 0 (Registry.Histogram.min_ns h);
  Alcotest.(check int) "empty max is 0" 0 (Registry.Histogram.max_ns h);
  Alcotest.(check (float 0.)) "empty mean is 0" 0. (Registry.Histogram.mean_ns h);
  with_metrics (fun () ->
      List.iter
        (fun v -> Registry.Histogram.observe_ns h v)
        [ 700.; 300.; 1100.; 500. ];
      Alcotest.(check int) "exact min" 300 (Registry.Histogram.min_ns h);
      Alcotest.(check int) "exact max" 1100 (Registry.Histogram.max_ns h);
      Alcotest.(check (float 1e-9)) "exact mean" 650.
        (Registry.Histogram.mean_ns h);
      (* same-bucket values stay distinguishable in the extremes *)
      Alcotest.(check int)
        "min and max share a percentile bucket regime"
        (Registry.Histogram.bucket_of_ns 300.)
        (Registry.Histogram.bucket_of_ns 500.));
  Registry.Histogram.clear h;
  Alcotest.(check int) "clear resets min" 0 (Registry.Histogram.min_ns h);
  Alcotest.(check int) "clear resets max" 0 (Registry.Histogram.max_ns h)

(* Instrument names are escaped like any other JSON string: the dump
   used to print them raw, so a quote in a name broke the document. *)
let test_dumps_valid_json () =
  with_metrics (fun () ->
      let h = Registry.Histogram.make "test.hist.dump" in
      Registry.Histogram.observe_ns h 5000.;
      let c = Registry.Counter.make "test.\"quoted\\name" in
      Registry.Counter.add c 3;
      (match Json.parse (Registry.dump_json ()) with
      | Ok v ->
          Alcotest.(check (option (float 0.))) "quoted name decodes"
            (Some 3.)
            (Option.bind (Json.member "counters" v) (fun cs ->
                 Option.bind (Json.member "test.\"quoted\\name" cs) Json.to_num))
      | Error msg -> Alcotest.failf "dump_json invalid: %s" msg);
      Registry.Counter.clear c;
      Registry.Histogram.clear h)

let test_empty_histogram_percentile () =
  let h = Registry.Histogram.make "test.hist.empty" in
  Registry.Histogram.clear h;
  Alcotest.(check (float 0.)) "empty percentile is 0" 0.
    (Registry.Histogram.percentile_ns h 99.)

(* ---- pipeline counters as views ---- *)

let test_sat_counters_are_views () =
  Pc_predicate.Sat.reset_calls ();
  let cnf = Pc_predicate.Cnf.of_pred [ Pc_predicate.Atom.between "x" 0. 1. ] in
  ignore (Pc_predicate.Sat.check cnf);
  Alcotest.(check int) "calls view" 1 (Pc_predicate.Sat.calls ());
  Alcotest.(check bool)
    "registered counter agrees" true
    (List.assoc "sat.calls" (Registry.counters ()) = 1)

let test_budget_snapshot () =
  let b = Pc_budget.Budget.unlimited () in
  ignore (Pc_budget.Budget.take_cell b);
  ignore (Pc_budget.Budget.take_sat b);
  ignore (Pc_budget.Budget.take_sat b);
  let snap = Pc_budget.Budget.snapshot b in
  let get r = List.assoc r snap in
  Alcotest.(check int) "cells" 1 (get Pc_budget.Budget.Cells);
  Alcotest.(check int) "sat" 2 (get Pc_budget.Budget.Sat_calls);
  Alcotest.(check int) "nodes" 0 (get Pc_budget.Budget.Nodes);
  Alcotest.(check int) "iters" 0 (get Pc_budget.Budget.Iterations)

(* ---- JSON validator ---- *)

let test_json_validator () =
  let ok s =
    match Json.validate s with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%S rejected: %s" s m
  in
  let bad s =
    match Json.validate s with
    | Ok () -> Alcotest.failf "%S accepted" s
    | Error _ -> ()
  in
  ok {|{"a": [1, 2.5, -3e4], "b": {"c": null, "d": "x\ny"}, "e": true}|};
  ok "[]";
  ok "  42  ";
  ok {|"lone string"|};
  bad "{\"a\": NaN}";
  bad "{\"a\": Infinity}";
  bad "[1, 2,]";
  bad "{\"a\" 1}";
  bad "[1] trailing";
  bad "{\"bad\x01ctrl\": 1}";
  bad ""

(* A number printed and parsed back is the same double: %.12g used to
   put 0.3 on the wire for 0.1 + 0.2, below the computed value. *)
let json_num_prop =
  QCheck.Test.make ~name:"Json.Num prints and parses bit-exact" ~count:2000
    Doubles.arb (fun x ->
      match Json.parse (Json.to_string (Json.Arr [ Json.Num x ])) with
      | Ok (Json.Arr [ Json.Num y ]) -> Doubles.bit_equal x y
      | _ -> false)

(* The parser against the one it replaced (test/oracle/json_oracle.ml):
   texts built from JSON's grammar with escapes, surrogate pairs (whole,
   lone, and bad), control characters, NUL and malformed numbers, then
   truncated, or with a byte inserted, deleted or replaced. Each text
   must give the same value or the same error text, offset included. *)
let json_text_gen =
  let open QCheck.Gen in
  let ws = oneofl [ ""; ""; " "; "\n"; "\t "; "\r\n" ] in
  let piece =
    frequency
      [
        (6, map (String.make 1) (oneofl [ 'a'; 'Z'; '0'; ' '; '~'; '\xc3'; '\xa9'; '\127' ]));
        (2, oneofl [ "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\n"; "\\r"; "\\t" ]);
        ( 2,
          oneofl
            [
              "\\u0041"; "\\u00e9"; "\\u20AC"; "\\u0000"; "\\uD83D\\uDE00"; "\\ud800";
              "\\udc00"; "\\uD800\\u0041"; "\\uD800\\n"; "\\uZZZZ"; "\\u12"; "\\x";
            ] );
        (1, oneofl [ "\000"; "\001"; "\n"; "\031" ]);
      ]
  in
  let str = map (fun ps -> "\"" ^ String.concat "" ps ^ "\"") (list_size (0 -- 6) piece) in
  let num =
    oneofl
      [
        "0"; "-0"; "12"; "-3.5"; "1e5"; "2E-3"; "1.5e+10"; "01"; "1."; "-"; ".5"; "1e";
        "1e+"; "123456789012345678901234567890"; "1e400"; "-0.0e-0";
      ]
  in
  let lit = oneofl [ "true"; "false"; "null"; "tru"; "nul"; "nulls" ] in
  let pad g = map3 (fun a v b -> a ^ v ^ b) ws g ws in
  let value =
    sized
    @@ fix (fun self n ->
           let leaf = frequency [ (3, str); (3, num); (1, lit) ] in
           if n <= 1 then pad leaf
           else
             frequency
               [
                 (2, pad leaf);
                 ( 2,
                   map
                     (fun xs -> "[" ^ String.concat "," xs ^ "]")
                     (list_size (0 -- 4) (self (n / 3))) );
                 ( 2,
                   map
                     (fun kvs ->
                       "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ v) kvs) ^ "}")
                     (list_size (0 -- 4) (pair (pad str) (self (n / 3)))) );
               ])
  in
  let byte = oneofl [ '\000'; '\001'; '\n'; '"'; '\\'; 'u'; 'D'; '{'; '}'; ']'; ','; ':'; '1'; 'e'; '-'; ' ' ] in
  let at k s = k mod (String.length s + 1) in
  let mutate =
    frequency
      [
        (2, return Fun.id);
        (1, map (fun k s -> String.sub s 0 (at k s)) nat);
        ( 1,
          map2
            (fun k c s ->
              let k = at k s in
              String.sub s 0 k ^ String.make 1 c ^ String.sub s k (String.length s - k))
            nat byte );
        ( 1,
          map
            (fun k s ->
              if s = "" then s
              else
                let k = k mod String.length s in
                String.sub s 0 k ^ String.sub s (k + 1) (String.length s - k - 1))
            nat );
        ( 1,
          map2
            (fun k c s ->
              if s = "" then s
              else String.mapi (fun i x -> if i = k mod String.length s then c else x) s)
            nat byte );
      ]
  in
  map2 (fun f s -> f s) mutate value

let json_oracle_prop =
  QCheck.Test.make ~name:"Json.parse matches the oracle parser" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") json_text_gen)
    (fun text -> Json.parse text = Json_oracle.parse text)

(* The printer against the one it replaced (test/oracle/json_oracle.ml):
   random values whose strings mix plain bytes, quotes, backslashes,
   every control character and high bytes, and whose numbers mix
   integers, short decimals, raw bit patterns and non-finite values.
   Each must print to the same bytes. *)
let json_value_gen =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (6, map Char.chr (32 -- 126));
        (2, map Char.chr (0 -- 31));
        (1, oneofl [ '"'; '\\'; '\127'; '\xc3'; '\xff' ]);
      ]
  in
  let str = string_size ~gen:byte (0 -- 12) in
  let num =
    frequency
      [
        (3, map Float.of_int (int_range (-1_000_000) 1_000_000));
        (3, map2 (fun m k -> Float.of_int m /. (10. ** Float.of_int k)) (int_range (-99_999_999) 99_999_999) (0 -- 9));
        (3, map Int64.float_of_bits ui64);
        (1, oneofl [ nan; infinity; neg_infinity; -0.; 0.1 +. 0.2 ]);
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           frequency
             [
               (3, map (fun s -> Json.Str s) str);
               (3, map (fun x -> Json.Num x) num);
               (1, oneofl [ Json.Null; Json.Bool true; Json.Bool false ]);
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun vs -> Json.Arr vs) (list_size (0 -- 4) (self (n / 3))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (0 -- 4) (pair str (self (n / 3)))) );
             ])

let json_print_prop =
  QCheck.Test.make ~name:"Json.to_string matches the oracle printer" ~count:3000
    (QCheck.make ~print:Json_oracle.to_string json_value_gen)
    (fun v -> Json.to_string v = Json_oracle.to_string v)

let () =
  Alcotest.run "pc_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled is transparent" `Quick
            test_disabled_is_transparent;
          Alcotest.test_case "nesting depths" `Quick test_nesting_depths;
          Alcotest.test_case "closed on raise" `Quick test_span_closed_on_raise;
          Alcotest.test_case "add_attr" `Quick test_add_attr;
          Alcotest.test_case "chrome JSON validates" `Quick
            test_chrome_json_valid;
          Alcotest.test_case "bound stage spans nest" `Quick test_bound_stage_spans;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          Alcotest.test_case "histogram exact extremes" `Quick
            test_histogram_exact_extremes;
          Alcotest.test_case "dump_json validates" `Quick test_dumps_valid_json;
          Alcotest.test_case "empty histogram" `Quick
            test_empty_histogram_percentile;
          QCheck_alcotest.to_alcotest histogram_percentile_prop;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "sat counters are views" `Quick
            test_sat_counters_are_views;
          Alcotest.test_case "budget snapshot" `Quick test_budget_snapshot;
        ] );
      ( "json",
        [
          Alcotest.test_case "validator" `Quick test_json_validator;
          QCheck_alcotest.to_alcotest json_num_prop;
          QCheck_alcotest.to_alcotest json_oracle_prop;
          QCheck_alcotest.to_alcotest json_print_prop;
        ] );
    ]
