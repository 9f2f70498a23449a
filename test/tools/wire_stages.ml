(* Stage costs of a served cache hit, the bound server's request path.

   Builds serve_hot's shape in process: a 9 x 6 grid of PCs over
   (device, time) with a light value range each, and 100 bound
   requests, 20 per aggregate (COUNT, SUM, AVG, MIN, MAX of light) over
   random device x time windows. An in-process server answers each
   request once, so every reply is the real one; a local cache then
   holds those replies under their keys, and each stage of a hit runs
   on its own:

     read   Net.read_line of one request line that is already waiting
            on a Unix socketpair (one line per read, as a served
            connection sees it)
     json   Json.parse of the request line
     query  Query_parser.parse of its query text
     key    Cache.key of the parsed query
     find   Cache.find of that key (a hit)
     write  Net.write_line of the reply to the socketpair
     rtt    Client.request of the request against the in-process
            server over loopback TCP: every stage above, the server's
            dispatch and telemetry, and both threads' wake-ups

   Each stage is timed per call with the monotonic clock. Per call it
   prints the mean and p50 microseconds, the minor words allocated
   (less the measuring calls' own), and the words allocated directly
   in the major heap (blocks too large for the minor heap; promotion
   excluded). The rtt row's words are the client's and the server's
   together, since both run in this process.

   Off the tier-1 path:
     dune exec test/tools/wire_stages.exe -- [--passes N] *)

module J = Pc_obs.Json
module Net = Pc_server.Net
module Cache = Pc_server.Cache
module Rng = Pc_util.Rng

let constraints =
  String.concat ""
    (List.concat
       (List.init 9 (fun i ->
            List.init 6 (fun j ->
                Printf.sprintf
                  "constraint d%d_t%d:\n\
                  \  device between %d and %d and time between %d and %d\n\
                  \  => light in [%d, %d], count [0, %d];\n"
                  i j (6 * i) ((6 * i) + 5) (56 * j) ((56 * j) + 55) (10 * i)
                  (200 + (40 * j)) (20 + i + j)))))

let requests () =
  let rng = Rng.create 7 in
  List.concat_map
    (fun agg ->
      List.init 20 (fun _ ->
          let wd = 3 + Rng.int rng 16 and wt = 30 + Rng.int rng 121 in
          let d0 = Rng.int rng (54 - wd + 1) and t0 = Rng.int rng (336 - wt + 1) in
          let query =
            Printf.sprintf
              "SELECT %s WHERE device BETWEEN %d AND %d AND time BETWEEN %d AND %d"
              agg d0 (d0 + wd - 1) t0 (t0 + wt - 1)
          in
          J.to_string
            (J.Obj
               [ ("op", J.Str "bound"); ("dataset", J.Str "default"); ("query", J.Str query) ])))
    [ "COUNT(*)"; "SUM(light)"; "AVG(light)"; "MIN(light)"; "MAX(light)" ]
  |> Array.of_list

let query_text line =
  match J.parse line with
  | Ok v -> Option.get (Option.bind (J.member "query" v) J.to_str)
  | Error e -> failwith e

let direct_major () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

(* Per call of [op i] (after an untimed [prep i]), over [passes] passes
   of the [n] requests: mean and p50 us, minor and direct-major words.
   The words the measuring calls themselves allocate are read off an
   empty op and subtracted. *)
let measure ~passes ~n ?(prep = fun _ -> ()) op =
  let calls = passes * n in
  let ns = Array.make calls 0 in
  let minor = ref 0. and major = ref 0. in
  Gc.full_major ();
  for k = 0 to calls - 1 do
    let i = k mod n in
    prep i;
    let ma0 = direct_major () in
    let mi0 = Gc.minor_words () in
    let t0 = Pc_util.Clock.now_ns () in
    op i;
    let t1 = Pc_util.Clock.now_ns () in
    let mi1 = Gc.minor_words () in
    let ma1 = direct_major () in
    ns.(k) <- Int64.to_int (Int64.sub t1 t0);
    minor := !minor +. (mi1 -. mi0);
    major := !major +. (ma1 -. ma0)
  done;
  Array.sort compare ns;
  let total = Array.fold_left ( + ) 0 ns in
  let per x = x /. float_of_int calls in
  ( per (float_of_int total) /. 1e3,
    float_of_int ns.(calls / 2) /. 1e3,
    per !minor,
    per !major )

let () =
  let passes = ref 200 in
  Arg.parse
    [ ("--passes", Arg.Set_int passes, "N passes over the 100 requests per stage (200)") ]
    (fun a -> raise (Arg.Bad a))
    "wire_stages [--passes N]";
  let passes = !passes in
  Net.ignore_sigpipe ();
  let lines = requests () in
  let n = Array.length lines in
  let srv = Pc_server.Server.create { Pc_server.Server.default_config with port = 0 } in
  (match Pc_server.Server.load_dataset srv ~name:"default" ~constraints () with
  | Ok _ -> ()
  | Error e -> failwith e);
  let th = Thread.create Pc_server.Server.run srv in
  let client = Pc_server.Client.connect ~host:"127.0.0.1" ~port:(Pc_server.Server.port srv) in
  let ask line =
    match Pc_server.Client.request client line with
    | Some reply -> reply
    | None -> failwith "wire_stages: the server closed the connection"
  in
  let replies = Array.map ask lines in
  let texts = Array.map query_text lines in
  let queries = Array.map Pc_parse.Query_parser.parse texts in
  let digest = "d41d8cd98f00b204e9800998ecf8427e" in
  let key i = Cache.key ~digest ~query:queries.(i) ~missing_only:false ~timeout_ms:None in
  let keys = Array.init n key in
  let cache = Cache.create () in
  Array.iteri
    (fun i k ->
      let where_ = queries.(i).Pc_query.Query.where_ in
      let meta = { Cache.pcs = []; where_; missing_only = false } in
      Cache.store cache ~meta ~version:0 k replies.(i))
    keys;
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Net.reader b in
  let sink = Bytes.create 65536 in
  let drain fd len =
    let got = ref 0 in
    while !got < len do
      got := !got + Unix.read fd sink 0 (min len (Bytes.length sink))
    done
  in
  Printf.printf "requests %d, passes %d, mean reply %d bytes\n" n passes
    (Array.fold_left (fun acc r -> acc + String.length r) 0 replies / n);
  Printf.printf "%-6s %9s %9s %12s %12s\n" "stage" "us/call" "p50 us" "minor w" "major w";
  let empty = measure ~passes ~n ignore in
  let row name ?prep op =
    let us, p50, minor, major = measure ~passes ~n ?prep op in
    let _, _, minor0, major0 = empty in
    Printf.printf "%-6s %9.3f %9.3f %12.1f %12.1f\n%!" name us p50 (minor -. minor0)
      (major -. major0)
  in
  row "read"
    ~prep:(fun i -> Net.write_line a lines.(i))
    (fun _ ->
      match Net.read_line reader with
      | `Line _ -> ()
      | `Eof | `Stopped -> failwith "wire_stages: no line");
  row "json" (fun i -> ignore (J.parse lines.(i)));
  row "query" (fun i -> ignore (Pc_parse.Query_parser.parse texts.(i)));
  row "key" (fun i -> ignore (key i));
  row "find" (fun i -> ignore (Cache.find cache keys.(i)));
  let pending = ref 0 in
  row "write"
    ~prep:(fun i ->
      drain b !pending;
      pending := String.length replies.(i) + 1)
    (fun i -> Net.write_line a replies.(i));
  drain b !pending;
  row "rtt" (fun i -> ignore (ask lines.(i)));
  Pc_server.Client.close client;
  Unix.close a;
  Unix.close b;
  Pc_server.Server.initiate_drain srv;
  Thread.join th
