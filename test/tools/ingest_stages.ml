(* Stage costs of serve_ingest's server work, replayed in process.

   Builds serve_ingest's shape: a 9 x 6 grid of PCs over (device, time)
   with a light value range each, 144 bound queries over random
   device x time windows (a quarter overlap the ingested PC's box:
   COUNT 15, SUM 14, AVG 3, MIN 2, MAX 2; the rest do not: 22, 22, 22,
   21, 21), and four 8-row CSV batches drawn inside one PC's box. Three
   batches are appended and every query asked once before timing. Each
   timed step then appends the batch the previous step retracted, asks
   three bounds, retracts the oldest live batch and asks three more, as
   the served script does.

   Every request makes the library calls the server's handlers make,
   in their order: the request's JSON; for a bound, the front-index
   lookup; on a refill (a re-asked text whose entry a batch emptied)
   the schema check, the pinned snapshot, the bound (warm engine first
   for COUNT/SUM), the reply's JSON and the store, with the parsed
   query, key and reachable PCs the entry kept; on a front miss the
   query parse, the key and the canonical lookup first, and on a miss
   the same steps with the reachable PCs derived; for an append, the
   batch parse and [Stream.append] with the cache sweep as its publish
   hook; for a retract, the batch lookup and [Stream.retract] with the
   same hook. Socket, connection thread, admission and telemetry are
   left out.

   It prints the words the timed steps allocated in the minor heap and
   promoted out of it, per step, and per stage the calls per step, the
   mean and p50 microseconds per call, and the microseconds per step
   (mean x calls per step). [append], [retract], [hit] and the [miss]
   rows are whole requests; [batch parse], [invalidate], [parse],
   [key], [active_pcs], [bound], [reply] and [store] are parts of them,
   timed where the request makes them. [(certain)] is the certain
   side's fold inside [bound] ([Query.fold] on the pinned certain
   rows), run once more beside each miss and kept out of the miss's
   own time. [step] is a whole step. The last line counts the timed
   steps' cache misses and refills: on this script every timed miss is
   a refill.

   Off the tier-1 path:
     dune exec test/tools/ingest_stages.exe -- [--steps N] *)

module J = Pc_obs.Json
module Q = Pc_query.Query
module Bounds = Pc_core.Bounds
module Cache = Pc_server.Cache
module Stream = Pc_store.Stream
module Fdd = Pc_predicate.Fdd
module Rng = Pc_util.Rng

let keys ~digest query =
  let part = Cache.query_part query in
  (part, Cache.key_of_part ~digest part ~missing_only:false ~timeout_ms:None)

let engine_key part =
  Cache.key_of_part ~digest:"engine" part ~missing_only:false ~timeout_ms:None

let device_w = 6
let time_w = 56

let constraints =
  String.concat ""
    (List.concat
       (List.init 9 (fun i ->
            List.init 6 (fun j ->
                Printf.sprintf
                  "constraint d%d_t%d:\n\
                  \  device between %d and %d and time between %d and %d\n\
                  \  => light in [%d, %d], count [0, %d];\n"
                  i j (device_w * i)
                  ((device_w * i) + device_w - 1)
                  (time_w * j)
                  ((time_w * j) + time_w - 1)
                  (10 * i)
                  (200 + (40 * j))
                  (40 + i + j)))))

(* The ingested PC's box: d4_t2. *)
let box_d0 = 4 * device_w
let box_t0 = 2 * time_w

let overlaps_box d0 d1 t0 t1 =
  d0 <= box_d0 + device_w - 1 && box_d0 <= d1 && t0 <= box_t0 + time_w - 1 && box_t0 <= t1

let queries rng =
  let sql = function
    | "count" -> "COUNT(*)"
    | "sum" -> "SUM(light)"
    | "avg" -> "AVG(light)"
    | "min" -> "MIN(light)"
    | _ -> "MAX(light)"
  in
  let rec draw agg ~near =
    let wd = 3 + Rng.int rng 16 and wt = 30 + Rng.int rng 121 in
    let d0 = Rng.int rng (54 - wd + 1) and t0 = Rng.int rng (336 - wt + 1) in
    let d1 = d0 + wd - 1 and t1 = t0 + wt - 1 in
    if overlaps_box d0 d1 t0 t1 <> near then draw agg ~near
    else
      J.to_string
        (J.Obj
           [
             ("op", J.Str "bound");
             ( "query",
               J.Str
                 (Printf.sprintf
                    "SELECT %s WHERE device BETWEEN %d AND %d AND time BETWEEN %d AND %d"
                    (sql agg) d0 d1 t0 t1) );
           ])
  in
  let mix ~near l = List.concat_map (fun (agg, n) -> List.init n (fun _ -> draw agg ~near)) l in
  let qs =
    Array.of_list
      (mix ~near:true [ ("count", 15); ("sum", 14); ("avg", 3); ("min", 2); ("max", 2) ]
      @ mix ~near:false [ ("count", 22); ("sum", 22); ("avg", 22); ("min", 21); ("max", 21) ])
  in
  Rng.shuffle rng qs;
  qs

let chunks rng =
  Array.init 4 (fun _ ->
      let b = Buffer.create 256 in
      Buffer.add_string b "device,time,light\n";
      for _ = 1 to 8 do
        Printf.bprintf b "%d,%d,%d\n"
          (box_d0 + Rng.int rng device_w)
          (box_t0 + Rng.int rng time_w)
          (100 + Rng.int rng 200)
      done;
      J.to_string (J.Obj [ ("op", J.Str "append"); ("csv", J.Str (Buffer.contents b)) ]))

(* Per-stage samples in nanoseconds. *)
let samples : (string, int list ref) Hashtbl.t = Hashtbl.create 16
let order = ref []

let record name ns =
  match Hashtbl.find_opt samples name with
  | Some l -> l := ns :: !l
  | None ->
      order := name :: !order;
      Hashtbl.add samples name (ref [ ns ])

let timed name f =
  let t0 = Pc_util.Clock.now_ns () in
  let v = f () in
  record name (Int64.to_int (Int64.sub (Pc_util.Clock.now_ns ()) t0));
  v

(* Nanoseconds spent on parts run again beside a request: [ask] takes
   them out of the request's row. *)
let aside = ref 0

let timed_aside name f =
  let t0 = Pc_util.Clock.now_ns () in
  f ();
  let ns = Int64.to_int (Int64.sub (Pc_util.Clock.now_ns ()) t0) in
  record name ns;
  aside := !aside + ns

let answer_value = function
  | Bounds.Range r ->
      J.Obj
        [
          ("kind", J.Str "range");
          ("lo", J.Num r.Pc_core.Range.lo);
          ("hi", J.Num r.Pc_core.Range.hi);
          ("lo_exact", J.Bool r.Pc_core.Range.lo_exact);
          ("hi_exact", J.Bool r.Pc_core.Range.hi_exact);
        ]
  | Bounds.Empty -> J.Obj [ ("kind", J.Str "empty") ]
  | Bounds.Infeasible -> J.Obj [ ("kind", J.Str "infeasible") ]

(* The server's reply to a fully admitted bound. *)
let reply (o : Bounds.outcome) ~incremental =
  let s = o.Bounds.stats in
  J.Obj
    ([
       ("ok", J.Bool true);
       ("op", J.Str "bound");
       ("answer", answer_value o.Bounds.answer);
       ("provenance", J.Str (Bounds.provenance_name s.Bounds.provenance));
       ("degraded", J.Bool (s.Bounds.provenance <> Bounds.Exact));
       ("admission", J.Str "full");
       ( "stats",
         J.Obj
           [
             ("cells", J.Num (float_of_int s.Bounds.cells));
             ("sat_calls", J.Num (float_of_int s.Bounds.sat_calls));
             ("nodes", J.Num (float_of_int s.Bounds.milp_nodes));
             ("iters", J.Num (float_of_int s.Bounds.lp_iterations));
             ("elapsed_ms", J.Num (Float.round (s.Bounds.elapsed *. 1e9) /. 1e6));
             ("deadline_hit", J.Bool s.Bounds.deadline_hit);
           ] );
     ]
    @ if incremental then [ ("incremental", J.Bool true) ] else [])

type ds = {
  set : Pc_core.Pc_set.t;
  fdd : Fdd.compiled;
  digest : string;
  cache : Cache.t;
  stream : Stream.t;
  engines : (string, Pc_core.Incremental.t option) Hashtbl.t;
}

let opts = { Bounds.default_opts with Bounds.strategy = Pc_core.Cells.Fdd }

let field line name =
  match J.parse line with
  | Ok v -> J.member name v
  | Error e -> failwith e

let agg_name (q : Q.t) =
  match q.Q.agg with
  | Q.Count -> "COUNT"
  | Q.Sum _ -> "SUM"
  | Q.Avg _ -> "AVG"
  | Q.Min _ -> "MIN"
  | Q.Max _ -> "MAX"

(* A miss, first or refill; returns its stage. *)
let miss ds ~front query ~part ~ckey ~meta =
  Option.iter (fun schema -> ignore (Q.check_schema schema query)) (Stream.schema ds.stream);
  let st = Stream.snapshot ds.stream in
  let budget = Pc_budget.Budget.start Pc_budget.Budget.unlimited_spec in
  let incremental = ref false in
  let warm =
    if Pc_core.Incremental.supported query then
      Some
        (fun budget ->
          let ekey = engine_key part in
          let eng =
            match Hashtbl.find_opt ds.engines ekey with
            | Some e -> e
            | None ->
                if Hashtbl.length ds.engines >= 32 then Hashtbl.reset ds.engines;
                let e = Pc_core.Incremental.create ~budget ~fdd:ds.fdd ds.set query in
                Hashtbl.add ds.engines ekey e;
                e
          in
          let a =
            Option.bind eng (Pc_core.Incremental.rebound ~budget ~consumed:st.Stream.consumed)
          in
          incremental := Option.is_some a;
          a)
    else None
  in
  let o =
    timed "  bound" (fun () ->
        Bounds.bound_budgeted ~opts ~budget ?certain:st.Stream.certain ~fdd:ds.fdd ?warm
          st.Stream.residual query)
  in
  timed_aside "  (certain)" (fun () ->
      Option.iter (fun c -> ignore (Q.fold c query)) st.Stream.certain);
  let text = timed "  reply" (fun () -> J.to_string (reply o ~incremental:!incremental)) in
  if o.Bounds.stats.Bounds.provenance = Bounds.Exact then begin
    let meta =
      match meta with
      | Some m -> m
      | None ->
          {
            Cache.pcs =
              timed "  active_pcs" (fun () -> Fdd.active_pcs ~query:query.Q.where_ ds.fdd);
            where_ = query.Q.where_;
            missing_only = false;
          }
    in
    timed "  store" (fun () ->
        Cache.store ds.cache ~meta ~version:st.Stream.version ~front ~parsed:(query, part)
          ckey text)
  end;
  Printf.sprintf "%s miss %s" (if !incremental then "warm" else "cold") (agg_name query)

(* One bound request; returns the stage its whole time belongs to. *)
let bound ds line =
  let text = Option.get (Option.bind (field line "query") J.to_str) in
  let front = Cache.front_key ~text ~missing_only:false ~timeout_ms:None in
  match Cache.find_front ds.cache front with
  | Cache.Hit _ -> "hit"
  | Cache.Refill f ->
      miss ds ~front f.Cache.query ~part:f.Cache.part ~ckey:f.Cache.key ~meta:(Some f.Cache.meta)
  | Cache.Absent -> (
      let query = timed "  parse" (fun () -> Pc_parse.Query_parser.parse text) in
      let part, ckey = timed "  key" (fun () -> keys ~digest:ds.digest query) in
      match Cache.find ds.cache ~front ckey with
      | Some _ -> "hit"
      | None -> miss ds ~front query ~part ~ckey ~meta:None)

let invalidate ds batch (info : Stream.info) =
  let rows =
    Option.map
      (fun b ->
        (Pc_data.Batch.schema b, Pc_data.Relation.tuples (Pc_data.Batch.to_relation b)))
      batch
  in
  timed "  invalidate" (fun () ->
      ignore
        (Cache.invalidate ds.cache ~version:info.Stream.version ~touched:info.Stream.touched
           ~rows))

let append ds live line =
  let csv = Option.get (Option.bind (field line "csv") J.to_str) in
  let batch =
    timed "  batch parse" (fun () ->
        Pc_data.Batch.of_csv_string ?schema:(Stream.schema ds.stream) csv)
  in
  match Stream.append ds.stream batch ~before_publish:(invalidate ds (Some batch)) with
  | Ok (info, _) -> Queue.push info.Stream.batch_id live
  | Error e -> failwith e

let retract ds live =
  let line = Printf.sprintf {|{"op":"retract","batch":%d}|} (Queue.pop live) in
  let batch_id = int_of_float (Option.get (Option.bind (field line "batch") J.to_num)) in
  let batch = Stream.find_batch ds.stream ~batch_id in
  match Stream.retract ds.stream ~batch_id ~before_publish:(invalidate ds batch) with
  | Ok _ -> ()
  | Error e -> failwith e

(* Print order: ingest ops, then bounds, then their parts. *)
let rank = function
  | "step" -> 0
  | "append" | "retract" -> 1
  | "  batch parse" | "  invalidate" -> 2
  | "hit" -> 3
  | "  parse" | "  key" | "  active_pcs" -> 5
  | "  bound" | "  (certain)" | "  reply" | "  store" -> 6
  | _ -> 4

let () =
  let steps = ref 20_000 in
  Arg.parse
    [ ("--steps", Arg.Set_int steps, "N timed steps (20000)") ]
    (fun a -> raise (Arg.Bad a))
    "ingest_stages [--steps N]";
  let rng = Rng.create 11 in
  let qs = queries rng and chunks = chunks rng in
  let set = Pc_core.Pc_set.make (Pc_parse.Pc_parser.parse constraints) in
  let fdd =
    Fdd.compile
      (Array.of_list (List.map (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred) (Pc_core.Pc_set.pcs set)))
  in
  let ds =
    {
      set;
      fdd;
      digest = Cache.digest_set set ~csv:None;
      cache = Cache.create ();
      stream = Stream.create ~fdd set;
      engines = Hashtbl.create 8;
    }
  in
  let live = Queue.create () in
  for k = 0 to 2 do
    append ds live chunks.(k)
  done;
  Array.iter (fun q -> ignore (bound ds q)) qs;
  Hashtbl.reset samples;
  order := [];
  let nq = Array.length qs in
  let counter c = Pc_obs.Registry.Counter.(get (make c)) in
  let misses0 = counter "cache.misses" and refills0 = counter "cache.refills" in
  let gc0 = Gc.quick_stat () in
  let ask i k =
    let line = qs.(((6 * i) + k) mod nq) in
    let a0 = !aside in
    let t0 = Pc_util.Clock.now_ns () in
    let stage = bound ds line in
    let ns = Int64.to_int (Int64.sub (Pc_util.Clock.now_ns ()) t0) in
    record stage (ns - (!aside - a0))
  in
  for i = 0 to !steps - 1 do
    let a0 = !aside in
    let t0 = Pc_util.Clock.now_ns () in
    timed "append" (fun () -> append ds live chunks.((3 + i) mod 4));
    for k = 0 to 2 do
      ask i k
    done;
    timed "retract" (fun () -> retract ds live);
    for k = 3 to 5 do
      ask i k
    done;
    let ns = Int64.to_int (Int64.sub (Pc_util.Clock.now_ns ()) t0) in
    record "step" (ns - (!aside - a0))
  done;
  let steps = float_of_int !steps in
  let gc = Gc.quick_stat () in
  Printf.printf "%d PCs, %d queries, %.0f steps: %.0f minor and %.0f promoted words per step\n"
    (Pc_core.Pc_set.size set) nq steps
    ((gc.Gc.minor_words -. gc0.Gc.minor_words) /. steps)
    ((gc.Gc.promoted_words -. gc0.Gc.promoted_words) /. steps);
  Printf.printf "%-16s %9s %9s %9s %9s\n" "stage" "calls/st" "us/call" "p50 us" "us/step";
  List.iter
    (fun name ->
      let ns = Array.of_list !(Hashtbl.find samples name) in
      Array.sort compare ns;
      let n = Array.length ns in
      let mean = float_of_int (Array.fold_left ( + ) 0 ns) /. float_of_int n /. 1e3 in
      let per_step = float_of_int n /. steps in
      Printf.printf "%-16s %9.3f %9.2f %9.2f %9.2f\n" name per_step mean
        (float_of_int ns.(n / 2) /. 1e3)
        (mean *. per_step))
    (List.sort
       (fun a b -> compare (rank a, a) (rank b, b))
       (List.rev !order));
  Printf.printf "cache misses %d, refills %d\n"
    (counter "cache.misses" - misses0)
    (counter "cache.refills" - refills0)
