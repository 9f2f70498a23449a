(* The bound server: protocol, per-request crash isolation, admission
   control, graceful drain, and the chaos acceptance test (faults armed,
   8 concurrent clients, torn sockets — every well-formed request is
   answered soundly or with a structured error; the server never dies;
   the drain leaves valid artifacts). *)

module S = Pc_server.Server
module A = Pc_server.Admission
module C = Pc_server.Client
module B = Pc_budget.Budget
module F = Pc_fault.Fault
module J = Pc_obs.Json

let tc = Alcotest.test_case

let constraints_text =
  "constraint chicago_cap:\n\
  \  branch = 'Chicago' => price in [0.0, 149.99], count [0, 5];\n\
   constraint newyork_cap:\n\
  \  branch = 'New York' => price in [0.0, 100.0], count [0, 10];\n"

let sum_query = "SELECT SUM(price) WHERE branch = 'Chicago'"

let start ?(cfg = S.default_config) () =
  let srv = S.create { cfg with S.port = 0 } in
  (match
     S.load_dataset srv ~name:"default" ~constraints:constraints_text ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (srv, Thread.create S.run srv)

let stop (srv, th) =
  S.initiate_drain srv;
  Thread.join th

let connect srv = C.connect ~host:"127.0.0.1" ~port:(S.port srv)

let parse reply =
  match J.parse reply with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "bad reply %S: %s" reply e)

let req c line =
  match C.request c line with
  | Some reply -> parse reply
  | None -> Alcotest.fail "connection closed instead of replying"

let ok v =
  match J.member "ok" v with
  | Some (J.Bool b) -> b
  | _ -> Alcotest.fail "reply without \"ok\""

let str v k = Option.bind (J.member k v) J.to_str
let num v k = Option.bind (J.member k v) J.to_num

let err_code v =
  match Option.bind (J.member "error" v) (fun e -> str e "code") with
  | Some c -> c
  | None -> Alcotest.fail "error reply without code"

(* ------------------------------ protocol ------------------------------ *)

let test_session () =
  let ((srv, _) as s) = start () in
  let c = connect srv in
  let v = req c {|{"op":"ping"}|} in
  Alcotest.(check bool) "pong ok" true (ok v);
  let v = req c (Printf.sprintf {|{"op":"bound","query":%s}|} (J.to_string (J.Str sum_query))) in
  Alcotest.(check bool) "bound ok" true (ok v);
  Alcotest.(check (option string)) "exact" (Some "exact") (str v "provenance");
  (match J.member "answer" v with
  | Some a ->
      Alcotest.(check (option string)) "range" (Some "range") (str a "kind");
      (match (num a "lo", num a "hi") with
      | Some lo, Some hi -> Alcotest.(check bool) "lo<=hi" true (lo <= hi)
      | _ -> Alcotest.fail "range without lo/hi")
  | None -> Alcotest.fail "no answer");
  (* the bound's time is reported in whole nanoseconds *)
  (match Option.bind (J.member "stats" v) (fun s -> num s "elapsed_ms") with
  | Some ms ->
      Alcotest.(check (float 0.)) "elapsed_ms in whole ns" (Float.round (ms *. 1e6) /. 1e6) ms
  | None -> Alcotest.fail "no elapsed_ms");
  let v = req c {|{"op":"stats"}|} in
  Alcotest.(check bool) "stats ok" true (ok v);
  Alcotest.(check bool) "requests counted" true
    (match num v "requests" with Some n -> n >= 2. | None -> false);
  C.close c;
  stop s

let test_crash_isolation () =
  let ((srv, _) as s) = start () in
  let c = connect srv in
  (* a barrage of garbage, then a real request on the same connection *)
  let v = req c "this is not json" in
  Alcotest.(check bool) "garbage rejected" false (ok v);
  Alcotest.(check string) "bad-json" "bad-json" (err_code v);
  let v = req c {|{"op":"frobnicate"}|} in
  Alcotest.(check string) "unknown-op" "unknown-op" (err_code v);
  let v = req c {|{"op":"bound"}|} in
  Alcotest.(check string) "missing field" "bad-request" (err_code v);
  let v = req c {|{"op":"bound","query":"SELECT BOGUS(*)"}|} in
  Alcotest.(check string) "query parse error" "parse-error" (err_code v);
  let v = req c {|{"op":"bound","query":"SELECT COUNT(*)","dataset":"nope"}|} in
  Alcotest.(check string) "unknown dataset" "unknown-dataset" (err_code v);
  let v = req c {|{"op":"load","name":"d2","constraints":"syntax error!"}|} in
  Alcotest.(check string) "constraint parse error" "parse-error" (err_code v);
  let v = req c (Printf.sprintf {|{"op":"bound","query":%s}|} (J.to_string (J.Str sum_query))) in
  Alcotest.(check bool) "still serving after the barrage" true (ok v);
  C.close c;
  stop s

let test_load_op () =
  let ((srv, _) as s) = start () in
  let c = connect srv in
  let line =
    J.to_string
      (J.Obj
         [
           ("op", J.Str "load");
           ("name", J.Str "second");
           ("constraints", J.Str constraints_text);
         ])
  in
  let v = req c line in
  Alcotest.(check bool) "load ok" true (ok v);
  Alcotest.(check (option (float 0.))) "two constraints" (Some 2.)
    (num v "constraints");
  let v =
    req c {|{"op":"bound","dataset":"second","query":"SELECT COUNT(*)"}|}
  in
  Alcotest.(check bool) "bound on new dataset" true (ok v);
  C.close c;
  stop s

let test_torn_socket_isolated () =
  let ((srv, _) as s) = start () in
  (* half a request, no newline, then vanish *)
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", S.port srv));
  let half = {|{"op":"pi|} in
  ignore (Unix.write_substring fd half 0 (String.length half));
  Unix.close fd;
  (* the server shrugs; a well-behaved client is unaffected *)
  let c = connect srv in
  Alcotest.(check bool) "still alive" true (ok (req c {|{"op":"ping"}|}));
  C.close c;
  stop s

(* ------------------------------ wire ---------------------------------- *)

module Net = Pc_server.Net

(* A reader on one end of a socketpair, the other end to write to. *)
let with_pair ?max_line f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a (Net.reader ?max_line b))

let line_t =
  Alcotest.testable
    (fun ppf -> function
      | `Line l -> Format.fprintf ppf "`Line %S" l
      | `Eof -> Format.fprintf ppf "`Eof"
      | `Stopped -> Format.fprintf ppf "`Stopped")
    ( = )

(* A [stop] that lets exactly one [read] through: the bytes that are
   waiting land in the buffer, then [read_line] returns [`Stopped]. *)
let one_read () =
  let calls = ref 0 in
  fun () ->
    incr calls;
    !calls > 1

let test_net_lines_in_one_read () =
  with_pair (fun a r ->
      Net.write_string a "one\ntwo\r\n\nthree\rx\nlast";
      List.iter
        (fun want -> Alcotest.check line_t "in order" (`Line want) (Net.read_line r))
        [ "one"; "two"; ""; "three\rx" ];
      Alcotest.check line_t "partial line waits" `Stopped
        (Net.read_line ~stop:(one_read ()) r);
      Net.write_string a "\n";
      Alcotest.check line_t "then completes" (`Line "last") (Net.read_line r))

let test_net_split_across_reads () =
  with_pair (fun a r ->
      List.iter
        (fun piece ->
          Net.write_string a piece;
          Alcotest.check line_t ("after " ^ String.escaped piece) `Stopped
            (Net.read_line ~stop:(one_read ()) r))
        [ "hel"; "lo, wo"; "rld\r" ];
      Net.write_string a "\nnext\n";
      Alcotest.check line_t "the CR before a split LF is stripped" (`Line "hello, world")
        (Net.read_line r);
      Alcotest.check line_t "next" (`Line "next") (Net.read_line r))

let test_net_eof_mid_line () =
  with_pair (fun a r ->
      Net.write_string a "done\npartial";
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Alcotest.check line_t "complete line" (`Line "done") (Net.read_line r);
      Alcotest.check line_t "partial line dropped at EOF" `Eof (Net.read_line r);
      Alcotest.check line_t "EOF sticks" `Eof (Net.read_line r))

(* CRLF lines around the 64 KiB piece boundary: a long line's earlier
   pieces always start at its first byte, so at 65535 or 131071 bytes
   the CR is the last byte of a piece and the LF arrives alone. *)
let test_net_crlf_at_piece_boundary () =
  List.iter
    (fun n ->
      let line = String.make n 'a' in
      with_pair (fun a r ->
          let writer =
            Thread.create (fun () -> Net.write_string a (line ^ "\r\nnext\r\n")) ()
          in
          let got = Net.read_line r in
          let next = Net.read_line r in
          Thread.join writer;
          Alcotest.(check bool)
            (Printf.sprintf "a %d-byte CRLF line read back without its CR" n)
            true (got = `Line line);
          Alcotest.check line_t "the next line" (`Line "next") next))
    [ 65534; 65535; 65536; 131071; 131072 ]

(* A line far longer than the read buffer, written by a second thread
   (the socket holds far less): read in linear time, the pieces and the
   line itself about twice its length. The quadratic reader this
   replaced allocated about 1 GB for the same line. *)
let test_net_long_line_linear () =
  let n = 4 * 1024 * 1024 in
  let line = String.init n (fun i -> Char.chr (97 + (i mod 26))) in
  with_pair (fun a r ->
      let text = line ^ "\n" in
      let writer = Thread.create (fun () -> Net.write_string a text) () in
      let before = Gc.allocated_bytes () in
      let got = Net.read_line r in
      let allocated = Gc.allocated_bytes () -. before in
      Thread.join writer;
      Alcotest.(check bool) "the line read back" true (got = `Line line);
      Alcotest.(check bool)
        (Printf.sprintf "a %d-byte line allocates %.0f bytes (<= 3x)" n allocated)
        true
        (allocated <= 3. *. float_of_int n))

(* A line longer than the 64 KiB write chunk goes out in place up to
   its last chunk, which alone is copied with the newline: a 4 MiB line
   arrives byte-identical, and writing it allocates under 1 MiB, where
   appending the newline to the whole line copied all 4 MiB. The peer
   reads into a buffer made before the count starts, so its reads
   allocate nothing. *)
let test_net_long_line_write () =
  let n = 4 * 1024 * 1024 in
  let line = String.init n (fun i -> Char.chr (97 + (i mod 26))) in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let got = Bytes.create (n + 1) in
      let received = ref 0 in
      let peer =
        Thread.create
          (fun () ->
            while !received < n + 1 do
              match Unix.read b got !received (n + 1 - !received) with
              | 0 -> failwith "early EOF"
              | k -> received := !received + k
            done)
          ()
      in
      let before = Gc.allocated_bytes () in
      Net.write_line a line;
      let allocated = Gc.allocated_bytes () -. before in
      Thread.join peer;
      Alcotest.(check bool) "the line and its newline arrive" true
        (Bytes.sub_string got 0 n = line && Bytes.get got n = '\n');
      Alcotest.(check bool)
        (Printf.sprintf "writing a %d-byte line allocates %.0f bytes (< 1 MiB)" n allocated)
        true
        (allocated < 1024. *. 1024.))

(* The cap holds for every line, including one that arrives whole in a
   single read: over the cap the server answers line-too-long and hangs
   up; at the cap the request is served. *)
let test_line_cap () =
  let cap = 1024 in
  let ((srv, _) as s) = start ~cfg:{ S.default_config with S.max_line = cap } () in
  let ping bytes =
    let head = {|{"op":"ping","pad":"|} and tail = {|"}|} in
    head ^ String.make (bytes - String.length head - String.length tail) 'x' ^ tail
  in
  let c = connect srv in
  Alcotest.(check bool) "at-cap line served" true (ok (req c (ping cap)));
  let over = connect srv in
  Alcotest.(check string) "3000-byte line refused" "line-too-long"
    (err_code (req over (ping 3000)));
  Alcotest.(check (option string)) "and the connection closed" None
    (C.request over {|{"op":"ping"}|});
  C.close over;
  let c2 = connect srv in
  Alcotest.(check string) "one byte over the cap refused" "line-too-long"
    (err_code (req c2 (ping (cap + 1))));
  C.close c2;
  Alcotest.(check bool) "other connections unaffected" true (ok (req c {|{"op":"ping"}|}));
  C.close c;
  stop s

(* A connection that sends nothing does not hold up a drain: its reader
   sees the flag within one receive-timeout slice. *)
let test_drain_with_idle_connection () =
  let poll_s = 0.05 in
  let srv, th = start ~cfg:{ S.default_config with S.poll_s } () in
  let c = connect srv in
  Alcotest.(check bool) "connected" true (ok (req c {|{"op":"ping"}|}));
  let t0 = Unix.gettimeofday () in
  S.initiate_drain srv;
  Thread.join th;
  let took = Unix.gettimeofday () -. t0 in
  C.close c;
  Alcotest.(check bool)
    (Printf.sprintf "drained in %.3f s, within 10 poll slices of %.2f s" took poll_s)
    true
    (took <= 10. *. poll_s)

(* Allocation ceiling of a served cache hit: 1000 round trips of a
   cached bound through an in-process server and [Client], both sides'
   words counted (one process). Each reader keeps one buffer for its
   connection, so a round trip allocates nothing directly in the major
   heap; the reader this replaced allocated a fresh 8 KiB chunk (1025
   words) per read on each side, 2050 per round trip. *)
let test_hit_allocation_ceiling () =
  let ((srv, _) as s) = start () in
  let c = connect srv in
  let line = Printf.sprintf {|{"op":"bound","query":%s}|} (J.to_string (J.Str sum_query)) in
  for _ = 1 to 10 do
    ignore (req c line)
  done;
  let direct_major () =
    let st = Gc.quick_stat () in
    st.Gc.major_words -. st.Gc.promoted_words
  in
  let trips = 1000 in
  let major0 = direct_major () and minor0 = Gc.minor_words () in
  for _ = 1 to trips do
    match C.request c line with
    | Some _ -> ()
    | None -> Alcotest.fail "connection closed"
  done;
  let per x = x /. float_of_int trips in
  let major = per (direct_major () -. major0) and minor = per (Gc.minor_words () -. minor0) in
  C.close c;
  stop s;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f direct major words per round trip <= 64" major)
    true (major <= 64.);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per round trip <= 1500" minor)
    true (minor <= 1500.)

(* --------------------------- concurrency ------------------------------ *)

let test_concurrent_clients () =
  let ((srv, _) as s) = start () in
  let failures = Atomic.make 0 in
  let worker _ =
    Thread.create
      (fun () ->
        let c = connect srv in
        for _ = 1 to 5 do
          let line =
            Printf.sprintf {|{"op":"bound","query":%s}|}
              (J.to_string (J.Str sum_query))
          in
          match C.request c line with
          | Some reply when ok (parse reply) -> ()
          | _ -> Atomic.incr failures
        done;
        C.close c)
      ()
  in
  let threads = List.init 8 worker in
  List.iter Thread.join threads;
  Alcotest.(check int) "all 40 requests answered" 0 (Atomic.get failures);
  stop s

(* ------------------------- admission control -------------------------- *)

let test_admission_unit () =
  let p = A.policy ~max_inflight:8 () in
  Alcotest.(check bool) "idle is full" true (A.level_for p ~inflight:0 = A.Full);
  Alcotest.(check bool) "saturated is floor" true
    (A.level_for p ~inflight:8 = A.Floor_only);
  (* monotone: more load never yields a cheaper level *)
  let rec mono i prev =
    if i > 10 then ()
    else
      let l = A.level_order (A.level_for p ~inflight:i) in
      Alcotest.(check bool) "monotone" true (l >= prev);
      mono (i + 1) l
  in
  mono 0 0;
  (* crush only tightens: an operator cap below the crush survives *)
  let base = B.spec ~sat_calls:0 ~nodes:3 () in
  let crushed = A.crush base A.Early_only in
  Alcotest.(check (option int)) "nodes crushed" (Some 0) crushed.B.max_nodes;
  Alcotest.(check (option int)) "sat cap kept" (Some 0) crushed.B.max_sat_calls

let test_admission_p99_slo () =
  let no_slo = A.policy ~max_inflight:8 () in
  Alcotest.(check bool) "no SLO: any p99 is full" true
    (A.level_for_p99 no_slo ~p99_ms:1e9 = A.Full);
  let p = A.policy ~p99_slo_ms:10. ~max_inflight:8 () in
  let lvl ms = A.level_for_p99 p ~p99_ms:ms in
  Alcotest.(check bool) "within SLO" true (lvl 5. = A.Full);
  Alcotest.(check bool) "at SLO" true (lvl 10. = A.Full);
  Alcotest.(check bool) "one doubling" true (lvl 15. = A.Dual_only);
  Alcotest.(check bool) "two doublings" true (lvl 35. = A.Early_only);
  Alcotest.(check bool) "meltdown" true (lvl 100. = A.Floor_only);
  (* the latency dimension is monotone too *)
  let rec mono ms prev =
    if ms > 120. then ()
    else begin
      let l = A.level_order (lvl ms) in
      Alcotest.(check bool) "p99 monotone" true (l >= prev);
      mono (ms +. 7.) l
    end
  in
  mono 0. 0;
  (* combining dimensions: the worse one wins, in both orders *)
  Alcotest.(check bool) "combine worse right" true
    (A.combine A.Full A.Early_only = A.Early_only);
  Alcotest.(check bool) "combine worse left" true
    (A.combine A.Floor_only A.Dual_only = A.Floor_only);
  Alcotest.(check bool) "combine equal" true
    (A.combine A.Full A.Full = A.Full)

let test_overload_degrades () =
  (* thresholds of zero: every request lands on the trivial floor. The
     dataset must be overlapping — a disjoint set takes the budget-free
     O(n) greedy path, which a floored budget rightly leaves exact. *)
  let overlapping =
    "constraint a: branch = 'Chicago' => price in [0.0, 100.0], count [0, 5];\n\
     constraint b: branch = 'Chicago' => price in [0.0, 150.0], count [2, 10];\n"
  in
  let cfg =
    {
      S.default_config with
      S.policy =
        {
          A.full_below = 0;
          A.dual_below = 0;
          A.early_below = 0;
          A.p99_slo_ms = None;
        };
    }
  in
  let ((srv, _) as s) = start ~cfg () in
  (match S.load_dataset srv ~name:"ov" ~constraints:overlapping () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let c = connect srv in
  let v = req c {|{"op":"bound","dataset":"ov","query":"SELECT COUNT(*)"}|} in
  Alcotest.(check bool) "still answered" true (ok v);
  Alcotest.(check (option string)) "admission reported" (Some "floor-only")
    (str v "admission");
  Alcotest.(check (option string)) "floor provenance" (Some "trivial")
    (str v "provenance");
  (match J.member "degraded" v with
  | Some (J.Bool b) -> Alcotest.(check bool) "marked degraded" true b
  | _ -> Alcotest.fail "no degraded flag");
  C.close c;
  stop s

(* ------------------------------- cache -------------------------------- *)

(* Counter.make dedups by name, so these read the cache's live global
   counters. The registry is process-wide and other tests also issue
   bound requests, so assertions are on deltas, never absolutes. *)
let cache_hits () = Pc_obs.Registry.Counter.(get (make "cache.hits"))
let cache_misses () = Pc_obs.Registry.Counter.(get (make "cache.misses"))

let raw_req c line =
  match C.request c line with
  | Some reply -> reply
  | None -> Alcotest.fail "connection closed instead of replying"

let test_cache_replay_byte_identical () =
  let ((srv, _) as s) = start () in
  let c = connect srv in
  let line =
    Printf.sprintf {|{"op":"bound","query":%s}|} (J.to_string (J.Str sum_query))
  in
  let h0 = cache_hits () and m0 = cache_misses () in
  let r1 = raw_req c line in
  let r2 = raw_req c line in
  (* the cache stores the serialized reply, so a hit is the same bytes,
     not merely the same JSON value *)
  Alcotest.(check string) "replayed reply byte-identical" r1 r2;
  Alcotest.(check bool) "first request missed" true (cache_misses () > m0);
  Alcotest.(check bool) "second request hit" true (cache_hits () > h0);
  let v = parse r2 in
  Alcotest.(check bool) "hit is ok" true (ok v);
  Alcotest.(check (option string)) "hit keeps exact provenance"
    (Some "exact") (str v "provenance");
  C.close c;
  stop s

let test_cache_keys_pinned () =
  let module Atom = Pc_predicate.Atom in
  let module I = Pc_interval.Interval in
  let module Cache = Pc_server.Cache in
  let pc = Pc_core.Pc.make in
  let set =
    Pc_core.Pc_set.make
      [
        pc ~name:"a"
          ~pred:[ Atom.between "x" 0. 10.5; Atom.cat_eq "c" "k" ]
          ~values:[ ("v", I.closed (-1.25) 0.1) ]
          ~freq:(0, 3) ();
        pc ~name:"b"
          ~pred:
            [
              Atom.Num_range ("x", I.make_exn (I.Open 0.1) (I.Closed 1e20));
              Atom.Cat_not_in ("c", [ "b\"q"; "a" ]);
            ]
          ~values:[ ("w", I.point (-0.)); ("v", I.closed 0. 5.) ]
          ~freq:(1, 7) ();
        pc ~name:"c"
          ~pred:[ Atom.less_than "x" 3.; Atom.greater_than "y" (-2.) ]
          ~values:[] ~freq:(0, 0) ();
      ]
  in
  let digest = Cache.digest_set set ~csv:(Some "x,y\n1,2\n") in
  Alcotest.(check string) "digest with rows"
    "71a2c82e9de6608423172ea033a6b529" digest;
  Alcotest.(check string) "digest without rows"
    "e6a01a7f85c7567b255fed0e453d851f"
    (Cache.digest_set set ~csv:None);
  let where_ =
    [
      Atom.Num_range ("x", I.make_exn (I.Open 0.1) (I.Closed 3.));
      Atom.Cat_in ("c", [ "z"; "a" ]);
      Atom.at_least "y" (-0.);
    ]
  in
  Alcotest.(check string) "count key"
    ({|71a2c82e9de6608423172ea033a6b529|count|n"x"[o0x1.999999999999ap-4,c0x1.8p+1]|}
   ^ {|&n"y"[c-0x0p+0,+inf]&i"c"{"a";"z"}|m=true|t=0x1.4p+1|})
    (Cache.key ~digest ~query:(Pc_query.Query.count ~where_ ())
       ~missing_only:true ~timeout_ms:(Some 2.5));
  Alcotest.(check string) "sum key"
    {|71a2c82e9de6608423172ea033a6b529|sum("v")|TRUE|m=false|t=-|}
    (Cache.key ~digest ~query:(Pc_query.Query.sum "v") ~missing_only:false
       ~timeout_ms:None)

(* The keys against the Printf renderers they replaced
   (test/oracle/key_oracle.ml), byte for byte: random predicates over
   names that need [%S] escapes (quotes, backslashes, control and
   non-ASCII bytes), endpoints among -0., subnormals and arbitrary bit
   patterns, and timeouts of any bits, NaNs and infinities included. *)
let key_oracle_prop =
  let module Atom = Pc_predicate.Atom in
  let module I = Pc_interval.Interval in
  let open QCheck.Gen in
  let name = oneofl [ "x"; "light"; "a\"q"; "b\\s"; "tab\tnl\n"; "\000nul"; "\xc3\xa9t\xc3\xa9"; "\127"; "" ] in
  let ep x = frequency [ (3, return (I.Closed x)); (2, return (I.Open x)) ] in
  let interval =
    map2 (fun a b -> (Float.min a b, Float.max a b)) Doubles.gen Doubles.gen >>= fun (a, b) ->
    let lo = frequency [ (4, ep a); (1, return I.Neg_inf) ]
    and hi = frequency [ (4, ep b); (1, return I.Pos_inf) ] in
    map2 (fun lo hi -> match I.make lo hi with Some iv -> iv | None -> I.point a) lo hi
  in
  let atom =
    frequency
      [
        (4, map2 (fun a iv -> Atom.Num_range (a, iv)) name interval);
        (1, map2 (fun a v -> Atom.Cat_eq (a, v)) name name);
        (1, map2 (fun a v -> Atom.Cat_neq (a, v)) name name);
        (1, map2 (fun a vs -> Atom.Cat_in (a, vs)) name (list_size (0 -- 3) name));
        (1, map2 (fun a vs -> Atom.Cat_not_in (a, vs)) name (list_size (0 -- 3) name));
      ]
  in
  let agg =
    oneof
      [
        return (fun where_ -> Pc_query.Query.count ~where_ ());
        map (fun a where_ -> Pc_query.Query.sum ~where_ a) name;
        map (fun a where_ -> Pc_query.Query.avg ~where_ a) name;
        map (fun a where_ -> Pc_query.Query.min_ ~where_ a) name;
        map (fun a where_ -> Pc_query.Query.max_ ~where_ a) name;
      ]
  in
  let timeout =
    frequency
      [
        (1, return None);
        (3, map Option.some Doubles.gen);
        (2, map (fun b -> Some (Int64.float_of_bits b)) ui64);
        ( 1,
          map Option.some
            (oneofl [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; -0.; 5e-324 ]) );
      ]
  in
  let case =
    map
      (fun (((mk, where_), missing_only), timeout_ms) -> (mk where_, missing_only, timeout_ms))
      (pair (pair (pair agg (list_size (0 -- 4) atom)) bool) timeout)
  in
  QCheck.Test.make ~name:"keys match the Printf oracle" ~count:2000
    (QCheck.make
       ~print:(fun (q, m, t) ->
         Key_oracle.cache_key ~digest:"d" ~query:q ~missing_only:m ~timeout_ms:t)
       case)
    (fun (query, missing_only, timeout_ms) ->
      let where_ = query.Pc_query.Query.where_ in
      String.equal
        (Pc_server.Cache.key ~digest:"d" ~query ~missing_only ~timeout_ms)
        (Key_oracle.cache_key ~digest:"d" ~query ~missing_only ~timeout_ms)
      && String.equal (Pc_predicate.Pred.canonical_key where_) (Key_oracle.canonical_key where_)
      && List.for_all
           (function
             | Atom.Num_range (_, iv) -> String.equal (I.key iv) (Key_oracle.interval_key iv)
             | _ -> true)
           where_)

let test_load_invalidates_cache () =
  let ((srv, _) as s) = start () in
  let c = connect srv in
  let load text =
    let line =
      J.to_string
        (J.Obj
           [
             ("op", J.Str "load");
             ("name", J.Str "inv");
             ("constraints", J.Str text);
           ])
    in
    Alcotest.(check bool) "load ok" true (ok (req c line))
  in
  let bound_hi () =
    let v = req c {|{"op":"bound","dataset":"inv","query":"SELECT COUNT(*)"}|} in
    Alcotest.(check bool) "bound ok" true (ok v);
    match Option.bind (J.member "answer" v) (fun a -> num a "hi") with
    | Some hi -> hi
    | None -> Alcotest.fail "no hi in answer"
  in
  load constraints_text;
  Alcotest.(check (float 0.)) "caps 5+10" 15. (bound_hi ());
  ignore (bound_hi ());
  (* warm the entry *)
  let tighter =
    "constraint chicago_cap:\n\
    \  branch = 'Chicago' => price in [0.0, 149.99], count [0, 1];\n\
     constraint newyork_cap:\n\
    \  branch = 'New York' => price in [0.0, 100.0], count [0, 2];\n"
  in
  load tighter;
  let h = cache_hits () in
  (* a stale hit would replay 15; re-load must have dropped the entry *)
  Alcotest.(check (float 0.)) "reloaded caps 1+2" 3. (bound_hi ());
  Alcotest.(check int) "recomputed, not replayed" h (cache_hits ());
  C.close c;
  stop s

(* A text the cache has answered hits through the front index with the
   bytes of the canonical hit, and every request still moves exactly one
   of cache.hits / cache.misses. *)
let test_front_hit_same_bytes () =
  let ((srv, _) as s) = start () in
  let c = connect srv in
  let line q =
    Printf.sprintf {|{"op":"bound","query":%s}|} (J.to_string (J.Str q))
  in
  let spaced = "SELECT  SUM(price)   WHERE branch = 'Chicago'" in
  let h0 = cache_hits () and m0 = cache_misses () in
  let computed = raw_req c (line sum_query) in
  let front_hit = raw_req c (line sum_query) in
  let canonical_hit = raw_req c (line spaced) in
  let front_hit' = raw_req c (line spaced) in
  Alcotest.(check string) "front hit = computed" computed front_hit;
  Alcotest.(check string) "canonical hit = computed" computed canonical_hit;
  Alcotest.(check string) "second text's front hit" computed front_hit';
  Alcotest.(check int) "one miss" 1 (cache_misses () - m0);
  Alcotest.(check int) "three hits" 3 (cache_hits () - h0);
  C.close c;
  stop s

(* Front keys stay with an emptied entry, which refills in place, and
   go with a removed one; the byte cap counts them. *)
let test_front_keys_follow_entry () =
  let module Cache = Pc_server.Cache in
  let front text = Cache.front_key ~text ~missing_only:false ~timeout_ms:None in
  let show = function
    | Cache.Hit v -> "hit " ^ v
    | Cache.Refill f -> "refill " ^ f.Cache.key ^ " " ^ f.Cache.part
    | Cache.Absent -> "absent"
  in
  let looks c f = show (Cache.find_front c f) in
  let fa = front "SELECT COUNT(*)" and fb = front "SELECT  COUNT(*)" in
  let meta = { Cache.pcs = [ 0 ]; where_ = Pc_predicate.Pred.tt; missing_only = true } in
  let query = Pc_query.Query.count () in
  let part = Cache.query_part query in
  let c = Cache.create () in
  Cache.store c ~meta ~version:0 ~front:fa ~parsed:(query, part) "k" "v";
  Alcotest.(check (option string)) "canonical hit links b" (Some "v")
    (Cache.find c ~front:fb "k");
  Alcotest.(check int) "two texts, one entry" 1 (Cache.size c);
  Alcotest.(check string) "front a" "hit v" (looks c fa);
  Alcotest.(check string) "front b" "hit v" (looks c fb);
  let fronts = String.length fa + String.length fb in
  Alcotest.(check int) "bytes count front keys"
    (String.length "k" + String.length "v" + fronts)
    (Cache.bytes c);
  Alcotest.(check int) "invalidated" 1
    (Cache.invalidate c ~version:1 ~touched:[ 0 ] ~rows:None);
  Alcotest.(check string) "front a refills" ("refill k " ^ part) (looks c fa);
  Alcotest.(check string) "front b refills" ("refill k " ^ part) (looks c fb);
  (match Cache.find_front c fa with
  | Cache.Refill { Cache.meta = m; query = q; _ } ->
      Alcotest.(check bool) "the kept meta and query" true (m == meta && q == query)
  | _ -> Alcotest.fail "no refill");
  Alcotest.(check (option string)) "an emptied entry never answers" None
    (Cache.find c "k");
  Alcotest.(check int) "the emptied entry stays" 1 (Cache.size c);
  Alcotest.(check int) "its key and front keys stay counted"
    (String.length "k" + fronts) (Cache.bytes c);
  Alcotest.(check int) "a sweep passes over it" 0
    (Cache.invalidate c ~version:2 ~touched:[ 0 ] ~rows:None);
  Cache.store c ~meta ~version:2 ~front:fa ~parsed:(query, part) "k" "w";
  Alcotest.(check string) "refilled in place" "hit w" (looks c fb);
  Alcotest.(check int) "refilled bytes"
    (String.length "k" + String.length "w" + fronts)
    (Cache.bytes c);
  (* stored without [~parsed]: nothing to keep, so the entry and its
     front keys go *)
  let c = Cache.create () in
  Cache.store c ~meta ~version:0 ~front:fa "k" "v";
  Alcotest.(check int) "removed" 1
    (Cache.invalidate c ~version:1 ~touched:[ 0 ] ~rows:None);
  Alcotest.(check string) "its front gone" "absent" (looks c fa);
  Alcotest.(check int) "no entry left" 0 (Cache.size c);
  Alcotest.(check int) "no bytes left" 0 (Cache.bytes c);
  (* cap eviction: the second entry pushes the first, fronts and all,
     out; a front key that pushes its own entry over the cap goes with
     it *)
  let v = String.make 40 'x' in
  let c = Cache.create ~capacity_bytes:100 () in
  Cache.store c ~meta ~version:0 ~front:fa "k1" v;
  Cache.store c ~meta ~version:0 ~front:fb "k2" v;
  Alcotest.(check string) "old front evicted" "absent" (looks c fa);
  Alcotest.(check string) "new front kept" ("hit " ^ v) (looks c fb);
  Alcotest.(check int) "bytes after eviction"
    (2 + 40 + String.length fb) (Cache.bytes c);
  ignore (Cache.find c ~front:(front (String.make 80 ' ')) "k2");
  Alcotest.(check int) "over-cap front evicts its entry" 0 (Cache.size c);
  Alcotest.(check string) "its fronts too" "absent" (looks c fb);
  Alcotest.(check int) "nothing counted" 0 (Cache.bytes c)

(* The flat sweep evicts exactly what the per-entry hull test it
   replaced ([Cache_hull]) evicts, and sends exactly the same entries to
   the row test. Selections mix numeric atoms (full
   line, open, closed and infinite ends, -0.) with categorical ones, on
   attributes the batch schema lacks or holds at the other kind; rows
   carry NaN, ±inf and -0., some do not fit the schema, and some
   batches are empty. Sweeps alternate two schemas, so compiled
   layouts are rebuilt. *)
let prop_flat_invalidate_matches_oracle =
  let module Cache = Pc_server.Cache in
  let module Schema = Pc_data.Schema in
  let module V = Pc_data.Value in
  let module I = Pc_interval.Interval in
  let module Atom = Pc_predicate.Atom in
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
  QCheck.Test.make ~name:"flat invalidate ≡ per-entry hull test" ~count:500
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R.create seed in
      let pick a = R.choose rng a and one_in n = R.int rng n = 0 in
      let subset () = List.filter (fun _ -> R.bool rng) [ 0; 1; 2; 3; 4 ] in
      let interval () =
        if one_in 6 then I.full
        else
          let v = pick finite and w = pick finite in
          let lo = pick [| I.Neg_inf; I.Closed v; I.Open v |]
          and hi = pick [| I.Pos_inf; I.Closed w; I.Open w |] in
          Option.value (I.make lo hi) ~default:(I.point v)
      in
      let atom () =
        let a = pick [| "x"; "y"; "z"; "c"; "absent" |] in
        match R.int rng 6 with
        | 0 | 1 | 2 -> Atom.Num_range (a, interval ())
        | 3 -> Atom.Cat_eq (a, pick words)
        | 4 -> Atom.Cat_neq (a, pick words)
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
              | 0 -> pick [| nan; infinity; neg_infinity; -0.; 0. |]
              | 1 | 2 -> pick finite
              | _ -> R.uniform rng ~lo:(-3.) ~hi:4.)
        | Schema.Categorical -> V.Str (pick words)
      in
      let c = Cache.create () in
      let live = ref [] and next = ref 0 in
      let ok = ref true in
      for version = 1 to 1 + R.int rng 5 do
        for _ = 0 to R.int rng 8 do
          let key = Printf.sprintf "k%d" !next and m = meta () in
          incr next;
          Cache.store c ~meta:m ~version:(version - 1) key "v";
          live := (key, m) :: !live
        done;
        let touched = if one_in 3 then [] else subset () in
        let rows =
          if one_in 6 then None
          else
            let schema = schemas.(if one_in 3 then 1 else 0) in
            let attrs = Array.of_list (Schema.attrs schema) in
            Some
              ( schema,
                Array.init
                  (if one_in 6 then 0 else 1 + R.int rng 4)
                  (fun _ ->
                    if one_in 40 then [| V.Str "a" |] else Array.map value attrs) )
        in
        let victims, kept =
          List.partition (fun (_, m) -> Cache_hull.affected ~touched ~rows m) !live
        in
        let tested =
          List.length
            (List.filter (fun (_, m) -> Cache_hull.row_tested ~touched ~rows m) !live)
        in
        let row_tests = Pc_obs.Registry.Counter.make "cache.invalidate_row_tests" in
        let t0 = Pc_obs.Registry.Counter.get row_tests in
        let n = Cache.invalidate c ~version ~touched ~rows in
        ok :=
          !ok
          && n = List.length victims
          && Pc_obs.Registry.Counter.get row_tests - t0 = tested
          && Cache.size c = List.length kept
          && List.for_all (fun (k, _) -> Cache.find c k = None) victims
          && List.for_all (fun (k, _) -> Cache.find c k <> None) kept;
        live := kept
      done;
      !ok)

(* The refilling cache against a model of the remove-on-invalidate
   cache it replaced. A random script asks texts (several texts share
   one canonical key) through the server's protocol (the front lookup,
   then on [Absent] the canonical [find], a store on every miss, now
   and then pinned at a superseded version), makes bare canonical
   [find]s, and sweeps with random touched PCs and batch rows. The
   model answers each request by today's protocol: its front keys die
   with their entry, so a re-asked text after a sweep misses at [find].
   Caps do not bind. Every request gets the same reply or miss, every
   sweep evicts the same number, the hit, miss and invalidation
   counters move alike, and an emptied entry never answers. *)
module Cache_model = struct
  module Cache = Pc_server.Cache
  module Schema = Pc_data.Schema
  module V = Pc_data.Value
  module Atom = Pc_predicate.Atom

  let n_keys = 5
  let n_texts = 10
  let schema = Schema.of_names [ ("x", Schema.Numeric) ]
  let key_of text = Printf.sprintf "k%d" (text mod n_keys)
  let front text = Cache.front_key ~text:(Printf.sprintf "t%d" text) ~missing_only:false ~timeout_ms:None

  (* one meta per key, shared by its texts, as one dataset's FDD gives *)
  let metas =
    Array.init n_keys (fun k ->
        {
          Cache.pcs = [ k mod 3 ];
          where_ = [ Atom.between "x" (float_of_int k) (float_of_int (k + 2)) ];
          missing_only = k = 4;
        })

  let query = Pc_query.Query.count ()

  type op = Ask of int * bool | Find of int | Sweep of int list * float list option

  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun t stale -> Ask (t, stale)) (0 -- (n_texts - 1)) (map (( = ) 0) (0 -- 7)));
          (2, map (fun k -> Find k) (0 -- (n_keys - 1)));
          ( 2,
            map2
              (fun touched rows -> Sweep (touched, rows))
              (list_size (0 -- 2) (0 -- 2))
              (opt (list_size (0 -- 3) (map float_of_int (-1 -- 7)))) );
        ])

  let show = function
    | Ask (t, stale) -> Printf.sprintf "ask t%d%s" t (if stale then " stale" else "")
    | Find k -> Printf.sprintf "find k%d" k
    | Sweep (touched, rows) ->
        Printf.sprintf "sweep [%s] %s"
          (String.concat ";" (List.map string_of_int touched))
          (match rows with
          | None -> "-"
          | Some xs -> String.concat ";" (List.map string_of_float xs))

  let counter c = Pc_obs.Registry.Counter.(get (make c))

  let run ops =
    let c = Cache.create () in
    (* the model: key -> (reply, meta), and front -> key *)
    let entries = Hashtbl.create 8 and fronts = Hashtbl.create 8 in
    let hits = ref 0 and misses = ref 0 and invalidations = ref 0 in
    let version = ref 0 and next = ref 0 in
    let h0 = counter "cache.hits" and m0 = counter "cache.misses"
    and i0 = counter "cache.invalidations" in
    let model_find ?front key =
      match Hashtbl.find_opt entries key with
      | Some (v, _) ->
          incr hits;
          Option.iter (fun f -> Hashtbl.replace fronts f key) front;
          Some v
      | None ->
          incr misses;
          None
    in
    let model_store ~version:v ~front key value meta =
      if v >= !version then begin
        if not (Hashtbl.mem entries key) then Hashtbl.replace entries key (value, meta);
        Hashtbl.replace fronts front key
      end
    in
    let ok = ref true in
    let expect b = if not b then ok := false in
    List.iter
      (function
        | Ask (text, stale) ->
            let front = front text and key = key_of text in
            let meta = metas.(text mod n_keys) in
            (* the model: today's protocol *)
            let model =
              match Hashtbl.find_opt fronts front with
              | Some k ->
                  incr hits;
                  Some (fst (Hashtbl.find entries k))
              | None -> model_find ~front key
            in
            (* the cache: the server's protocol *)
            let real =
              match Cache.find_front c front with
              | Cache.Hit v -> Some v
              | Cache.Refill f ->
                  expect (f.Cache.key = key && f.Cache.meta == meta);
                  None
              | Cache.Absent -> Cache.find c ~front key
            in
            expect (real = model);
            if model = None then begin
              incr next;
              let value = Printf.sprintf "r%d" !next in
              let v = if stale then !version - 1 else !version in
              Cache.store c ~meta ~version:v ~front ~parsed:(query, "part") key value;
              model_store ~version:v ~front key value meta
            end
        | Find k ->
            let key = key_of k in
            expect (Cache.find c key = model_find key)
        | Sweep (touched, rows) ->
            incr version;
            let rows =
              Option.map
                (fun xs -> (schema, Array.of_list (List.map (fun x -> [| V.Num x |]) xs)))
                rows
            in
            let victims =
              Hashtbl.fold
                (fun k (_, m) acc ->
                  if Cache_sweep.affected ~touched ~rows m then k :: acc else acc)
                entries []
            in
            List.iter
              (fun k ->
                Hashtbl.remove entries k;
                Hashtbl.filter_map_inplace
                  (fun _ k' -> if k' = k then None else Some k')
                  fronts)
              victims;
            invalidations := !invalidations + List.length victims;
            expect (Cache.invalidate c ~version:!version ~touched ~rows = List.length victims))
      ops;
    !ok
    && counter "cache.hits" - h0 = !hits
    && counter "cache.misses" - m0 = !misses
    && counter "cache.invalidations" - i0 = !invalidations
end

let prop_refill_matches_remove_model =
  QCheck.Test.make ~name:"refilling cache ≡ remove-on-invalidate model" ~count:500
    QCheck.(
      make
        ~print:(fun ops -> String.concat ", " (List.map Cache_model.show ops))
        Gen.(list_size (0 -- 60) Cache_model.gen_op))
    Cache_model.run

(* With caps that bind, emptied entries count against them: after every
   operation the cache holds at most [capacity] entries and
   [capacity_bytes] bytes. *)
let prop_refill_respects_caps =
  let module Cache = Pc_server.Cache in
  QCheck.Test.make ~name:"emptied entries stay under the caps" ~count:300
    QCheck.(
      make
        Gen.(
          triple (1 -- 4) (20 -- 120)
            (list_size (0 -- 80)
               (triple (0 -- 9) (0 -- 30) (map (( = ) 0) (0 -- 3))))))
    (fun (capacity, capacity_bytes, ops) ->
      let c = Cache.create ~capacity ~capacity_bytes () in
      let version = ref 0 in
      List.for_all
        (fun (text, len, sweep) ->
          (if sweep then begin
             incr version;
             ignore (Cache.invalidate c ~version:!version ~touched:[ 0 ] ~rows:None)
           end
           else
             let front = Cache_model.front text and key = Cache_model.key_of text in
             match Cache.find_front c front with
             | Cache.Hit _ -> ()
             | Cache.Refill _ | Cache.Absent ->
                 Cache.store c ~meta:Cache_model.metas.(text mod Cache_model.n_keys)
                   ~version:!version ~front ~parsed:(Cache_model.query, "part") key
                   (String.make len 'v'));
          Cache.size c <= capacity && Cache.bytes c <= capacity_bytes)
        ops)

(* ------------------------------- drain -------------------------------- *)

let test_drain_flushes_artifacts () =
  let trace = Filename.temp_file "pcda_trace" ".json" in
  let metrics = Filename.temp_file "pcda_metrics" ".json" in
  Pc_obs.Trace.set_enabled true;
  Pc_obs.Registry.set_enabled true;
  let cfg =
    { S.default_config with S.trace_path = Some trace; metrics_path = Some metrics }
  in
  let ((srv, th) as s) = start ~cfg () in
  let c = connect srv in
  ignore (req c (Printf.sprintf {|{"op":"bound","query":%s}|} (J.to_string (J.Str sum_query))));
  (* shutdown over the wire: reply first, then drain *)
  let v = req c {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown acknowledged" true (ok v);
  Thread.join th;
  Alcotest.(check bool) "drained" true (S.draining srv);
  List.iter
    (fun path ->
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match J.parse text with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s: invalid JSON: %s" path e));
      Sys.remove path)
    [ trace; metrics ];
  Pc_obs.Trace.set_enabled false;
  C.close c;
  ignore s

(* --------------------- telemetry & flight recorder -------------------- *)

module T = Pc_server.Telemetry

let mk_record id =
  {
    (T.request ~id) with
    T.t_s = 1.5 +. float_of_int id;
    op = "bound";
    dataset = "digest";
    admission = Some A.Full;
    cache = Pc_obs.Window.Miss;
    stats =
      Some
        {
          Pc_core.Bounds.provenance = Pc_core.Bounds.Exact;
          rungs = [ Pc_core.Bounds.Exact ];
          cells = 4;
          sat_calls = 2;
          admitted_unchecked = 0;
          milp_nodes = 0;
          lp_iterations = 3;
          elapsed = 0.;
          deadline_hit = false;
        };
    latency_ns = 1_000 * id;
  }

let test_flight_ring_wraps () =
  let f = T.Flight.create ~capacity:8 in
  Alcotest.(check (list int)) "empty ring" []
    (List.map (fun r -> r.T.id) (T.Flight.records f));
  for i = 1 to 20 do
    T.Flight.push f (mk_record i)
  done;
  Alcotest.(check int) "pushed counts everything" 20 (T.Flight.pushed f);
  let ids = List.map (fun r -> r.T.id) (T.Flight.records f) in
  Alcotest.(check (list int)) "last capacity records, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    ids;
  let dump = J.to_string (T.Flight.to_json f ~reason:"test") in
  (match Pc_obs.Json.validate dump with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flight dump invalid JSON: %s" e);
  let v = parse dump in
  Alcotest.(check (option string)) "schema tag" (Some "pcda-flight/1")
    (str v "schema");
  Alcotest.(check (option string)) "reason" (Some "test") (str v "reason")

(* Distinct fetch_and_add slots: within capacity, concurrent writers
   lose nothing at all — strictly tighter than the documented
   (writers - 1) bound, and every id is present exactly once. *)
let test_flight_concurrent_writers () =
  let writers = 8 and per = 100 in
  let f = T.Flight.create ~capacity:(writers * per) in
  let threads =
    List.init writers (fun w ->
        Thread.create
          (fun () ->
            for i = 0 to per - 1 do
              T.Flight.push f (mk_record ((w * per) + i + 1))
            done)
          ())
  in
  List.iter Thread.join threads;
  let ids = List.map (fun r -> r.T.id) (T.Flight.records f) in
  Alcotest.(check int) "no record lost" (writers * per) (List.length ids);
  Alcotest.(check int) "all ids distinct"
    (writers * per)
    (List.length (List.sort_uniq compare ids))

let jpath v names =
  List.fold_left (fun acc n -> Option.bind acc (J.member n)) (Some v) names

let jnum v names = Option.bind (jpath v names) J.to_num

let test_telemetry_op () =
  let ((srv, _) as s) = start () in
  let c = connect srv in
  let line =
    Printf.sprintf {|{"op":"bound","query":%s}|} (J.to_string (J.Str sum_query))
  in
  Alcotest.(check bool) "miss computes" true (ok (req c line));
  Alcotest.(check bool) "hit replays" true (ok (req c line));
  (* windows cover complete slots only (0.25 s each): step past the
     slot boundary so the two requests become visible *)
  Thread.delay 0.3;
  (* default view: windowed SLO stats plus totals *)
  let v = req c {|{"op":"telemetry"}|} in
  Alcotest.(check bool) "telemetry ok" true (ok v);
  List.iter
    (fun w ->
      match jnum v [ "windows"; w; "qps" ] with
      | Some q -> Alcotest.(check bool) (w ^ " qps >= 0") true (q >= 0.)
      | None -> Alcotest.failf "missing %s window" w)
    [ "1s"; "10s"; "60s" ];
  (* the two bound requests land in the live 1s window *)
  (match jnum v [ "windows"; "1s"; "n" ] with
  | Some n -> Alcotest.(check bool) "window saw the requests" true (n >= 2.)
  | None -> Alcotest.fail "no n in 1s window");
  (match jnum v [ "windows"; "1s"; "cache_hit_rate" ] with
  | Some r ->
      Alcotest.(check bool) "hit rate reflects the replay" true
        (r > 0. && r <= 1.)
  | None -> Alcotest.fail "no cache_hit_rate");
  (match (jnum v [ "cache"; "hits" ], jnum v [ "cache"; "misses" ]) with
  | Some h, Some m ->
      Alcotest.(check bool) "cache totals" true (h >= 1. && m >= 1.)
  | _ -> Alcotest.fail "missing cache counters");
  (match jnum v [ "admission"; "full" ] with
  | Some n -> Alcotest.(check bool) "admitted full" true (n >= 1.)
  | None -> Alcotest.fail "missing admission counters");
  (match jnum v [ "last_id" ] with
  | Some n -> Alcotest.(check bool) "ids assigned" true (n >= 3.)
  | None -> Alcotest.fail "missing last_id");
  (* prometheus view: the exposition rides inside the JSON reply *)
  let v = req c {|{"op":"telemetry","view":"prometheus"}|} in
  Alcotest.(check bool) "prometheus ok" true (ok v);
  (match Option.bind (J.member "text" v) J.to_str with
  | Some text ->
      let has needle =
        let nl = String.length needle and tl = String.length text in
        let rec scan i =
          i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) "counter family present" true
        (has "pcda_server_requests ");
      Alcotest.(check bool) "window gauge present" true
        (has "pcda_window_qps{window=\"1s\"}");
      Alcotest.(check bool) "typed families" true (has "# TYPE");
      Alcotest.(check bool) "histogram summary present" true
        (has "pcda_server_request_ns_count")
  | None -> Alcotest.fail "prometheus view without text");
  (* flight view: the dump is served over the wire *)
  let v = req c {|{"op":"telemetry","view":"flight"}|} in
  Alcotest.(check bool) "flight ok" true (ok v);
  (match J.member "flight" v with
  | Some f -> (
      Alcotest.(check (option string)) "flight schema" (Some "pcda-flight/1")
        (str f "schema");
      match J.member "records" f with
      | Some (J.Arr records) ->
          Alcotest.(check bool) "records retained" true
            (List.length records >= 2);
          (* the cached replay's record says hit, the first one miss *)
          let caches =
            List.filter_map (fun r -> str r "cache") records
          in
          Alcotest.(check bool) "hit recorded" true (List.mem "hit" caches);
          Alcotest.(check bool) "miss recorded" true (List.mem "miss" caches);
          let rungs_of =
            List.filter_map
              (fun r ->
                match J.member "rungs" r with
                | Some (J.Arr (J.Str first :: _)) -> Some first
                | _ -> None)
              records
          in
          Alcotest.(check bool) "ladder walk starts at exact" true
            (List.mem "exact" rungs_of)
      | _ -> Alcotest.fail "flight without records")
  | None -> Alcotest.fail "no flight payload");
  (* unknown view is a structured error, not a crash *)
  let v = req c {|{"op":"telemetry","view":"bogus"}|} in
  Alcotest.(check string) "unknown view rejected" "bad-request" (err_code v);
  (* enriched stats op: cache + admission + uptime *)
  let v = req c {|{"op":"stats"}|} in
  Alcotest.(check bool) "stats ok" true (ok v);
  (match (jnum v [ "cache"; "hits" ], jnum v [ "admission"; "full" ]) with
  | Some _, Some _ -> ()
  | _ -> Alcotest.fail "stats missing cache/admission counters");
  (match jnum v [ "uptime_s" ] with
  | Some u -> Alcotest.(check bool) "uptime sane" true (u >= 0.)
  | None -> Alcotest.fail "stats missing uptime");
  C.close c;
  stop s

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_flight_dump_on_drain () =
  let flight = Filename.temp_file "pcda_flight" ".json" in
  let cfg = { S.default_config with S.flight_path = Some flight } in
  let ((srv, th) as s) = start ~cfg () in
  let c = connect srv in
  ignore
    (req c
       (Printf.sprintf {|{"op":"bound","query":%s}|}
          (J.to_string (J.Str sum_query))));
  Alcotest.(check bool) "shutdown ok" true (ok (req c {|{"op":"shutdown"}|}));
  Thread.join th;
  let text = read_file flight in
  (match Pc_obs.Json.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "drain flight dump invalid JSON: %s" e);
  let v = parse text in
  Alcotest.(check (option string)) "dump reason" (Some "drain")
    (str v "reason");
  (match J.member "records" v with
  | Some (J.Arr records) ->
      let ops = List.filter_map (fun r -> str r "op") records in
      Alcotest.(check bool) "bound request recorded" true
        (List.mem "bound" ops)
  | _ -> Alcotest.fail "drain dump without records");
  Sys.remove flight;
  C.close c;
  ignore s

let test_flight_dump_on_crash () =
  let flight = Filename.temp_file "pcda_flight_crash" ".json" in
  let cfg = { S.default_config with S.flight_path = Some flight } in
  let ((srv, _) as s) = start ~cfg () in
  (* every reply torn mid-write: the send fails, the server records the
     failing request and dumps the flight ring *)
  F.with_faults
    (F.config ~seed:4 [ (F.Sock_tear, 1.0) ])
    (fun () ->
      let c = connect srv in
      (match C.request c {|{"op":"ping"}|} with
      | Some _ -> Alcotest.fail "expected the torn socket to kill the reply"
      | None -> ());
      C.close c);
  (* the dump happens on the connection thread right after the failed
     send; give it a moment *)
  let rec wait_for_dump tries =
    let ready =
      try String.length (read_file flight) > 0 with Sys_error _ -> false
    in
    if ready then ()
    else if tries = 0 then Alcotest.fail "no crash dump appeared"
    else begin
      Thread.delay 0.05;
      wait_for_dump (tries - 1)
    end
  in
  wait_for_dump 40;
  let text = read_file flight in
  (match Pc_obs.Json.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "crash flight dump invalid JSON: %s" e);
  let v = parse text in
  Alcotest.(check (option string)) "dump reason" (Some "crash")
    (str v "reason");
  (match J.member "records" v with
  | Some (J.Arr records) ->
      let failing =
        List.exists
          (fun r ->
            str r "op" = Some "ping" && str r "error" = Some "send-failed")
          records
      in
      Alcotest.(check bool) "failing request's record present" true failing
  | _ -> Alcotest.fail "crash dump without records");
  Sys.remove flight;
  stop s

(* ------------------------------- chaos -------------------------------- *)

let test_chaos () =
  let ((srv, _) as s) = start () in
  let bad_replies = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let cfg =
    F.config ~seed:2026 ~slow_s:0.0005
      [
        (F.Sat_fail, 0.3);
        (F.Sat_slow, 0.2);
        (F.Lp_doubt, 0.3);
        (F.Clock_skew, 0.1);
        (F.Sock_tear, 0.1);
        (F.Sock_close, 0.1);
      ]
  in
  F.with_faults cfg (fun () ->
      let requests =
        [
          Printf.sprintf {|{"op":"bound","query":%s}|}
            (J.to_string (J.Str sum_query));
          {|{"op":"bound","query":"SELECT COUNT(*)"}|};
          {|{"op":"bound","query":"SELECT AVG(price) WHERE branch = 'New York'"}|};
          "garbage %% line";
          {|{"op":"bound","query":"SELECT MIN(price)"}|};
        ]
      in
      let worker _ =
        Thread.create
          (fun () ->
            let c = ref (connect srv) in
            for i = 1 to 10 do
              let line = List.nth requests (i mod List.length requests) in
              match C.request !c line with
              | Some reply ->
                  (* every reply line must be a well-formed protocol
                     object: ok:true with an answer, or a structured
                     error — nothing in between *)
                  (match J.parse reply with
                  | Error _ -> Atomic.incr bad_replies
                  | Ok v -> (
                      Atomic.incr answered;
                      match (J.member "ok" v, J.member "error" v) with
                      | Some (J.Bool true), None -> ()
                      | Some (J.Bool false), Some _ -> ()
                      | _ -> Atomic.incr bad_replies))
              | None ->
                  (* injected socket fault killed the connection —
                     isolation means a fresh one works *)
                  C.close !c;
                  c := connect srv
            done;
            C.close !c)
          ()
      in
      let threads = List.init 8 worker in
      List.iter Thread.join threads);
  Alcotest.(check int) "every reply well-formed" 0 (Atomic.get bad_replies);
  Alcotest.(check bool) "most requests answered" true (Atomic.get answered > 0);
  (* the server survived: a clean client still gets service *)
  let c = connect srv in
  Alcotest.(check bool) "alive after the storm" true
    (ok (req c {|{"op":"stats"}|}));
  C.close c;
  stop s

(* A [Sock_close] fault must leave the fd to its connection thread. If
   the fault closed it as well, the thread's own close would hit the
   number a second time, after another thread (here: one cycling pipes)
   may have been handed it. Every wait has a timeout, so the bug shows as
   a failed check, never as a hang. *)
let test_sock_close_single_closer () =
  let ((srv, _) as s) = start () in
  let stop_pipes = Atomic.make false in
  let pipe_faults = Atomic.make 0 in
  let piper =
    Thread.create
      (fun () ->
        let buf = Bytes.create 8 in
        let i = ref 0 in
        while not (Atomic.get stop_pipes) do
          incr i;
          let msg = Printf.sprintf "%08d" !i in
          let r, w = Unix.pipe ~cloexec:true () in
          (try
             (* non-blocking: a reader that reused [r]'s number may have
                taken the bytes, and that must fail, not hang *)
             Unix.set_nonblock r;
             Unix.set_nonblock w;
             ignore (Unix.write_substring w msg 0 8);
             Thread.yield ();
             match Unix.select [ r ] [] [] 1.0 with
             | [], _, _ -> Atomic.incr pipe_faults
             | _ ->
                 let n = Unix.read r buf 0 8 in
                 if n <> 8 || Bytes.to_string buf <> msg then
                   Atomic.incr pipe_faults
           with Unix.Unix_error _ -> Atomic.incr pipe_faults);
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ()
        done)
      ()
  in
  let hung = ref 0 in
  F.with_faults
    (F.config ~seed:11 [ (F.Sock_close, 1.0) ])
    (fun () ->
      let line = {|{"op":"ping"}|} ^ "\n" in
      let buf = Bytes.create 256 in
      for _ = 1 to 300 do
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
        (try
           Unix.connect fd
             (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", S.port srv));
           ignore (Unix.write_substring fd line 0 (String.length line));
           (* the fault shuts the socket down: the client reads EOF *)
           if Unix.read fd buf 0 (Bytes.length buf) <> 0 then incr hung
         with Unix.Unix_error _ -> incr hung);
        Unix.close fd
      done);
  Atomic.set stop_pipes true;
  Thread.join piper;
  Alcotest.(check int) "pipe never saw EBADF or foreign bytes" 0
    (Atomic.get pipe_faults);
  Alcotest.(check int) "every faulted request ended in EOF" 0 !hung;
  stop s

(* ----------------------------- accounting ----------------------------- *)

(* A server with no preloaded dataset: every count it reports comes from
   the requests a test sends it. *)
let fresh () =
  let srv = S.create { S.default_config with S.port = 0 } in
  (srv, Thread.create S.run srv)

let acct_dsl =
  "constraint c1:\n  x between 0.0 and 10.0 => v in [0.0, 5.0], count [0, 3];\n"

let load_line ~name ~csv =
  J.to_string
    (J.Obj
       [
         ("op", J.Str "load");
         ("name", J.Str name);
         ("constraints", J.Str acct_dsl);
         ("csv", J.Str csv);
       ])

let flight_records c =
  match
    Option.bind
      (J.member "flight" (req c {|{"op":"telemetry","view":"flight"}|}))
      (J.member "records")
  with
  | Some (J.Arr records) -> records
  | _ -> Alcotest.fail "flight view without records"

let check_totals what st expected =
  List.iter
    (fun (path, n) ->
      Alcotest.(check (option (float 0.)))
        (what ^ " " ^ String.concat "." path)
        (Some n) (jnum st path))
    expected

(* One fixed script on a fresh server, every per-instance total and every
   flight record pinned exactly; a second server in the same process
   starts from zero. *)
let test_golden_accounting () =
  let ((srv, _) as s) = fresh () in
  let c = connect srv in
  let bound = {|{"op":"bound","dataset":"g","query":"SELECT COUNT(*)"}|} in
  let script =
    [
      {|{"op":"ping"}|};
      load_line ~name:"g" ~csv:"x,v\n1,2\n";
      bound;
      bound;
      {|{"op":"append","dataset":"g","csv":"x,v\n2,3\n4,1\n"}|};
      {|{"op":"retract","dataset":"g","batch":0}|};
      "this line is not json";
    ]
  in
  Alcotest.(check (list bool)) "replies"
    [ true; true; true; true; true; true; false ]
    (List.map (fun line -> ok (req c line)) script);
  let st = req c {|{"op":"stats"}|} in
  check_totals "stats" st
    [
      ([ "requests" ], 8.);
      ([ "errors" ], 1.);
      ([ "degraded" ], 0.);
      ([ "cache"; "hits" ], 1.);
      ([ "cache"; "misses" ], 1.);
      ([ "admission"; "full" ], 1.);
      ([ "admission"; "floor-only" ], 0.);
      ([ "ingest"; "batches" ], 1.);
      ([ "ingest"; "rows" ], 2.);
      ([ "ingest"; "retracts" ], 1.);
      ([ "ingest"; "incremental_bounds" ], 1.);
    ];
  let summary r = (num r "id", str r "op", str r "cache", str r "error") in
  Alcotest.(check
              (list
                 (pair
                    (pair (option (float 0.)) (option string))
                    (pair (option string) (option string)))))
    "flight records"
    (List.map
       (fun (id, op, cache, error) ->
         ((Some id, Some op), (Some cache, error)))
       [
         (1., "ping", "uncached", None);
         (2., "load", "uncached", None);
         (3., "bound", "miss", None);
         (4., "bound", "hit", None);
         (5., "append", "uncached", None);
         (6., "retract", "uncached", None);
         (7., "", "uncached", Some "bad-json");
         (8., "stats", "uncached", None);
       ])
    (List.map
       (fun r ->
         let id, op, cache, error = summary r in
         ((id, op), (cache, error)))
       (flight_records c));
  C.close c;
  stop s;
  let ((srv, _) as s) = fresh () in
  let c = connect srv in
  check_totals "second server" (req c {|{"op":"stats"}|})
    [
      ([ "requests" ], 1.);
      ([ "errors" ], 0.);
      ([ "degraded" ], 0.);
      ([ "cache"; "hits" ], 0.);
      ([ "cache"; "misses" ], 0.);
      ([ "admission"; "full" ], 0.);
      ([ "ingest"; "batches" ], 0.);
      ([ "ingest"; "rows" ], 0.);
      ([ "ingest"; "retracts" ], 0.);
      ([ "ingest"; "incremental_bounds" ], 0.);
    ];
  Alcotest.(check (list (option (float 0.))))
    "second server's flight ring holds only its own stats request"
    [ Some 1. ]
    (List.map (fun r -> num r "id") (flight_records c));
  C.close c;
  stop s

(* A query naming an attribute the certain partition lacks, or holds as
   text where a number is needed, is a structured error on a live
   connection: counted, recorded, and the connection keeps serving. *)
let test_bad_query_attribute () =
  let ((srv, _) as s) = fresh () in
  let c = connect srv in
  Alcotest.(check bool) "load numeric" true
    (ok (req c (load_line ~name:"g" ~csv:"x,v\n1,2\n")));
  Alcotest.(check bool) "load text" true
    (ok (req c (load_line ~name:"t" ~csv:"x,v\n1,a\n")));
  List.iter
    (fun (dataset, query) ->
      let v =
        req c
          (J.to_string
             (J.Obj
                [
                  ("op", J.Str "bound");
                  ("dataset", J.Str dataset);
                  ("query", J.Str query);
                ]))
      in
      Alcotest.(check bool) (query ^ " rejected") false (ok v);
      Alcotest.(check string) (query ^ " code") "bad-request" (err_code v))
    [
      ("g", "SELECT SUM(nope)");
      ("g", "SELECT SUM(v) WHERE nope = 3");
      ("t", "SELECT SUM(v)");
    ];
  Alcotest.(check bool) "connection still serving" true
    (ok (req c {|{"op":"ping"}|}));
  check_totals "stats" (req c {|{"op":"stats"}|}) [ ([ "errors" ], 3.) ];
  let bound_errors =
    List.filter_map
      (fun r -> if str r "op" = Some "bound" then str r "error" else None)
      (flight_records c)
  in
  Alcotest.(check (list string)) "each rejection recorded"
    [ "bad-request"; "bad-request"; "bad-request" ]
    bound_errors;
  C.close c;
  stop s

(* [retract]'s batch id must be an integer in range: truncating 0.7
   would retract batch 0, and 1e300 would report a bogus id. *)
let test_retract_batch_id () =
  let ((srv, _) as s) = fresh () in
  let c = connect srv in
  Alcotest.(check bool) "load" true
    (ok (req c (load_line ~name:"default" ~csv:"x,v\n1,2\n")));
  Alcotest.(check bool) "append" true
    (ok (req c {|{"op":"append","csv":"x,v\n2,3\n"}|}));
  List.iter
    (fun batch ->
      let v = req c (Printf.sprintf {|{"op":"retract","batch":%s}|} batch) in
      Alcotest.(check bool) (batch ^ " rejected") false (ok v);
      Alcotest.(check string) (batch ^ " code") "bad-request" (err_code v))
    [ "0.7"; "1e300"; "-1"; "-0.5" ];
  check_totals "nothing retracted" (req c {|{"op":"stats"}|})
    [ ([ "ingest"; "retracts" ], 0.) ];
  Alcotest.(check bool) "the live batch still retracts" true
    (ok (req c {|{"op":"retract","batch":0}|}));
  C.close c;
  stop s

(* The exposition spells undefined gauges as the format does: NaN used
   to print as 0, an undefined value reading as a measured zero. *)
let test_prometheus_non_finite () =
  let text =
    T.prometheus ~windows:[]
      ~gauges:
        [
          ("g.nan", Float.nan);
          ("g.pinf", infinity);
          ("g.ninf", neg_infinity);
          ("g.third", 1. /. 3.);
        ]
  in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line -> Alcotest.(check bool) line true (List.mem line lines))
    [
      "pcda_g_nan NaN";
      "pcda_g_pinf +Inf";
      "pcda_g_ninf -Inf";
      "pcda_g_third 0.3333333333333333";
    ]

(* A bound reply carries the computed range exactly, from the solver
   and from the cache: %.12g used to put "hi":0.3 on the wire for an
   upper end of 3 x 0.1 = 0.30000000000000004, below the range the
   server computed. *)
let test_wire_range_exact () =
  let constraints = "constraint tenth: true => v in [0.1, 0.1], count [0, 3];\n" in
  let query = "SELECT SUM(v)" in
  let expected =
    match
      Pc_core.Bounds.bound
        (Pc_core.Pc_set.make (Pc_parse.Pc_parser.parse constraints))
        (Pc_parse.Query_parser.parse query)
    with
    | Pc_core.Bounds.Range r -> r
    | _ -> Alcotest.fail "expected a range"
  in
  let bits = Int64.bits_of_float in
  let hi = expected.Pc_core.Range.hi in
  Alcotest.(check bool) "12 digits cannot carry the upper end" false
    (bits (float_of_string (Printf.sprintf "%.12g" hi)) = bits hi);
  let ((srv, _) as s) = start () in
  (match S.load_dataset srv ~name:"tenths" ~constraints () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let c = connect srv in
  let line =
    Printf.sprintf {|{"op":"bound","dataset":"tenths","query":%s}|}
      (J.to_string (J.Str query))
  in
  List.iter
    (fun pass ->
      match J.member "answer" (req c line) with
      | Some a ->
          Alcotest.(check (list int64)) (pass ^ ": wire lo/hi are the computed bits")
            [ bits expected.Pc_core.Range.lo; bits hi ]
            (List.map
               (fun k -> bits (Option.value (num a k) ~default:Float.nan))
               [ "lo"; "hi" ])
      | None -> Alcotest.fail "no answer")
    [ "solved"; "cached" ];
  C.close c;
  stop s

let () =
  Alcotest.run "pc_server"
    [
      ( "protocol",
        [
          tc "session" `Quick test_session;
          tc "crash isolation" `Quick test_crash_isolation;
          tc "load op" `Quick test_load_op;
          tc "torn socket isolated" `Quick test_torn_socket_isolated;
          tc "wire range is exact" `Quick test_wire_range_exact;
        ] );
      ( "wire",
        [
          tc "several lines in one read" `Quick test_net_lines_in_one_read;
          tc "a line split across reads" `Quick test_net_split_across_reads;
          tc "EOF mid-line" `Quick test_net_eof_mid_line;
          tc "CRLF at a piece boundary" `Quick test_net_crlf_at_piece_boundary;
          tc "a 4 MiB line is linear" `Quick test_net_long_line_linear;
          tc "line cap on every line" `Quick test_line_cap;
          tc "drain with an idle connection" `Quick test_drain_with_idle_connection;
          tc "hit allocation ceiling" `Quick test_hit_allocation_ceiling;
          tc "a 4 MiB line is written in place" `Quick test_net_long_line_write;
        ] );
      ("concurrency", [ tc "8 clients" `Quick test_concurrent_clients ]);
      ( "admission",
        [
          tc "policy unit" `Quick test_admission_unit;
          tc "p99 SLO dimension" `Quick test_admission_p99_slo;
          tc "overload degrades, never rejects" `Quick test_overload_degrades;
        ] );
      ( "telemetry",
        [
          tc "flight ring wraps" `Quick test_flight_ring_wraps;
          tc "flight concurrent writers" `Quick test_flight_concurrent_writers;
          tc "telemetry op" `Quick test_telemetry_op;
          tc "prometheus non-finite" `Quick test_prometheus_non_finite;
          tc "flight dump on drain" `Quick test_flight_dump_on_drain;
          tc "flight dump on crash" `Quick test_flight_dump_on_crash;
        ] );
      ( "cache",
        [
          tc "replay is byte-identical" `Quick test_cache_replay_byte_identical;
          tc "keys pinned" `Quick test_cache_keys_pinned;
          QCheck_alcotest.to_alcotest key_oracle_prop;
          tc "load invalidates" `Quick test_load_invalidates_cache;
          tc "front hit is the canonical hit" `Quick test_front_hit_same_bytes;
          tc "front keys follow their entry" `Quick test_front_keys_follow_entry;
          QCheck_alcotest.to_alcotest prop_flat_invalidate_matches_oracle;
          QCheck_alcotest.to_alcotest prop_refill_matches_remove_model;
          QCheck_alcotest.to_alcotest prop_refill_respects_caps;
        ] );
      ("drain", [ tc "artifacts flushed" `Quick test_drain_flushes_artifacts ]);
      ( "chaos",
        [
          tc "faults + 8 clients" `Quick test_chaos;
          tc "sock_close leaves one closer" `Quick test_sock_close_single_closer;
        ] );
      ( "accounting",
        [
          tc "golden script" `Quick test_golden_accounting;
          tc "unknown query attribute" `Quick test_bad_query_attribute;
          tc "retract batch id" `Quick test_retract_batch_id;
        ] );
    ]
