module B = Pc_budget.Budget
module Bounds = Pc_core.Bounds
module J = Pc_obs.Json
module Counter = Pc_obs.Registry.Counter
module Fault = Pc_fault.Fault
module Q = Pc_query.Query
module Stream = Pc_store.Stream
module T = Telemetry
module W = Pc_obs.Window

(* The two registry counters that count events inside a request rather
   than requests; everything per-request is bumped by [T.Sink.observe]. *)
let c_slo_crushed = Counter.make "server.slo_crushed"
let c_ingest_evicted = Counter.make "ingest.cache_evicted"

type config = {
  host : string;
  port : int;
  base_spec : B.spec;
  policy : Admission.policy;
  max_line : int;
  poll_s : float;
  trace_path : string option;
  metrics_path : string option;
  flight_path : string option;
  flight_capacity : int;
}

(* Every dataset is decomposed through its load-time diagram. *)
let opts = { Bounds.default_opts with Bounds.strategy = Pc_core.Cells.Fdd }

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    base_spec = B.unlimited_spec;
    policy = Admission.policy ~max_inflight:64 ();
    max_line = 16 * 1024 * 1024;
    poll_s = 0.1;
    trace_path = None;
    metrics_path = None;
    flight_path = None;
    flight_capacity = 512;
  }

type dataset = {
  set : Pc_core.Pc_set.t;  (** the base (load-time) constraint set *)
  fdd : Pc_predicate.Fdd.compiled;  (** compiled once at load *)
  digest : string;  (** canonical content digest — the cache-key prefix *)
  cache : Cache.t;
      (** per-dataset reply cache; replaced wholesale on re-[load];
          ingestion evicts delta-scoped via [Cache.invalidate] *)
  stream : Pc_store.Stream.t;
      (** the evolving certain partition + per-PC consumption; queries
          pin one immutable snapshot, appends publish a fresh one *)
  engines : (string, Pc_core.Incremental.t option) Hashtbl.t;
      (** per-query incremental bound engines, keyed on the canonical
          (aggregate, predicate) form; [None] caches "out of scope" so
          unsupported queries don't retry engine construction *)
  engines_mu : Mutex.t;  (** serializes engine lookup and solves *)
}

(* Engine table bound: a dataset under a hostile query mix must not
   accumulate unbounded LP state. Crossing the cap resets the table —
   engines rebuild cold on demand, which is exactly the pre-incremental
   cost. *)
let max_engines = 32

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  datasets : (string, dataset) Hashtbl.t;
  mu : Mutex.t;  (** guards [datasets] *)
  drain : bool Atomic.t;
  conns : int Atomic.t;  (** live connection threads *)
  inflight : int Atomic.t;  (** requests being computed right now *)
  sink : T.Sink.t;  (** request ids, records, and every per-request total *)
  t0 : float;
}

(* The telemetry clock: wall time composed with the injected skew, the
   same view budget deadline checks get — so the skew fault exercises
   window rotation, which must never produce a negative rate. *)
let telemetry_now () =
  Pc_util.Clock.now ()
  +. (if Fault.enabled () then Fault.clock_skew_s () else 0.)

let create cfg =
  Net.ignore_sigpipe ();
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  {
    cfg;
    listen_fd = fd;
    bound_port;
    datasets = Hashtbl.create 8;
    mu = Mutex.create ();
    drain = Atomic.make false;
    conns = Atomic.make 0;
    inflight = Atomic.make 0;
    sink = T.Sink.create ~flight_capacity:cfg.flight_capacity;
    t0 = Pc_util.Clock.now ();
  }

let port t = t.bound_port
let draining t = Atomic.get t.drain
let initiate_drain t = Atomic.set t.drain true

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> initiate_drain t) in
  (try Sys.set_signal Sys.sigterm handle with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint handle with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Dataset management                                                  *)
(* ------------------------------------------------------------------ *)

let load_dataset t ~name ~constraints ?csv () =
  match
    let set = Pc_core.Pc_set.make (Pc_parse.Pc_parser.parse constraints) in
    let certain = Option.map Pc_data.Csv.read_string csv in
    let fdd =
      Pc_predicate.Fdd.compile
        (Array.of_list
           (List.map
              (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred)
              (Pc_core.Pc_set.pcs set)))
    in
    ( {
        set;
        fdd;
        digest = Cache.digest_set set ~csv;
        cache = Cache.create ();
        stream = Stream.create ?certain ~fdd set;
        engines = Hashtbl.create 8;
        engines_mu = Mutex.create ();
      },
      certain )
  with
  | exception (Failure msg | Invalid_argument msg) -> Error msg
  | ds, certain ->
      Mutex.protect t.mu (fun () -> Hashtbl.replace t.datasets name ds);
      Ok
        ( Pc_core.Pc_set.size ds.set,
          Option.fold ~none:0 ~some:Pc_data.Relation.cardinality certain )

let find_dataset t name =
  Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.datasets name)

let dataset_names t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.datasets [])
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

(* A handler's reply: either a JSON value still to be serialized, or the
   exact bytes of a cached reply. Handlers return it beside the
   request's record, which carries everything telemetry needs to know. *)
type reply = Rjson of J.value | Rtext of string

let reply_text = function Rjson v -> J.to_string v | Rtext s -> s

(* An error reply; its code lands on the request's record here and
   nowhere else. *)
let fail (r : T.record) code msg =
  ( Rjson
      (J.Obj
         [
           ("ok", J.Bool false);
           ("error", J.Obj [ ("code", J.Str code); ("msg", J.Str msg) ]);
         ]),
    { r with T.error = Some code } )

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

let stats_value (s : Bounds.stats) =
  J.Obj
    [
      ("cells", J.Num (float_of_int s.Bounds.cells));
      ("sat_calls", J.Num (float_of_int s.Bounds.sat_calls));
      ("nodes", J.Num (float_of_int s.Bounds.milp_nodes));
      ("iters", J.Num (float_of_int s.Bounds.lp_iterations));
      (* whole nanoseconds, so the number printer's short-decimal path
         takes it *)
      ("elapsed_ms", J.Num (Float.round (s.Bounds.elapsed *. 1e9) /. 1e6));
      ("deadline_hit", J.Bool s.Bounds.deadline_hit);
    ]

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let str_field v name = Option.bind (J.member name v) J.to_str
let num_field v name = Option.bind (J.member name v) J.to_num
let bool_field v name = Option.bind (J.member name v) J.to_bool

(* Resolve the request's ["dataset"] (default ["default"]) and record
   its digest before handing over to [k]. *)
let with_dataset t r v k =
  let dname = Option.value (str_field v "dataset") ~default:"default" in
  match find_dataset t dname with
  | None -> fail r "unknown-dataset" (Printf.sprintf "no dataset %S loaded" dname)
  | Some ds -> k dname ds { r with T.dataset = ds.digest }

let handle_load t r v =
  match (str_field v "name", str_field v "constraints") with
  | None, _ -> fail r "bad-request" "load: missing string field \"name\""
  | _, None -> fail r "bad-request" "load: missing string field \"constraints\""
  | Some name, Some constraints -> (
      match load_dataset t ~name ~constraints ?csv:(str_field v "csv") () with
      | Error msg -> fail r "parse-error" msg
      | Ok (n_constraints, n_rows) ->
          ( Rjson
              (J.Obj
                 [
                   ("ok", J.Bool true);
                   ("op", J.Str "load");
                   ("name", J.Str name);
                   ("constraints", J.Num (float_of_int n_constraints));
                   ("certain_rows", J.Num (float_of_int n_rows));
                 ]),
            r ))

(* Re-bound [query] on the dataset's engine, built on first use; both
   are charged to the request's [budget]. [part] is the query's
   {!Cache.query_part}. *)
let warm_rebound ds query ~part ~budget ~consumed =
  let ekey =
    Cache.key_of_part ~digest:"engine" part ~missing_only:false ~timeout_ms:None
  in
  Mutex.protect ds.engines_mu (fun () ->
      let eng =
        match Hashtbl.find_opt ds.engines ekey with
        | Some e -> e
        | None ->
            if Hashtbl.length ds.engines >= max_engines then
              Hashtbl.reset ds.engines;
            let e =
              Pc_core.Incremental.create ~budget ~fdd:ds.fdd ds.set query
            in
            Hashtbl.add ds.engines ekey e;
            e
      in
      Option.bind eng (Pc_core.Incremental.rebound ~budget ~consumed))

(* Admission: the level is decided from the in-flight count *before*
   this request joins it. Drain floors new arrivals so shutdown cannot
   be outrun by traffic. The latency dimension (the live windowed 1 s
   p99 against the configured SLO) is read only when an SLO is set,
   which keeps the no-SLO hot path snapshot-free. *)
let admission_level t ~inflight =
  if Atomic.get t.drain then Admission.Floor_only
  else
    let by_slo =
      if t.cfg.policy.Admission.p99_slo_ms = None then Admission.Full
      else begin
        let s =
          W.snapshot ~now:(telemetry_now ()) (T.Sink.window t.sink) ~window_s:1.
        in
        let l =
          Admission.level_for_p99 t.cfg.policy ~p99_ms:(s.W.p99_ns /. 1e6)
        in
        if l <> Admission.Full then Counter.incr c_slo_crushed;
        l
      end
    in
    Admission.combine (Admission.level_for t.cfg.policy ~inflight) by_slo

(* The request's budget: the base spec crushed by its admission level,
   clipped by its own [timeout_ms]. *)
let request_budget t level timeout_ms =
  let spec = Admission.crush t.cfg.base_spec level in
  B.start
    (match timeout_ms with
    | None -> spec
    | Some ms ->
        let s = Float.max 0. (ms /. 1e3) in
        {
          spec with
          B.timeout =
            (match spec.B.timeout with
            | None -> Some s
            | Some t -> Some (Float.min t s));
        })

(* A cache miss: admit, compute on one pinned snapshot, and store the
   reply when it is reusable. The request holds an in-flight slot for
   its whole compute. [meta] is the entry's kept meta on a refill and
   [None] on a first miss, which derives it. *)
let compute_bound t ds r query ~part ~ckey ~front ~timeout_ms ~missing_only ~meta =
  let inflight = Atomic.fetch_and_add t.inflight 1 in
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.inflight)
    (fun () ->
      let level = admission_level t ~inflight in
      let budget = request_budget t level timeout_ms in
      (* Pin one immutable ingestion snapshot: the certain relation,
         per-PC consumption, and residual PC set below were published
         together, so this request can never observe a batch's rows
         without its budget consumption. *)
      let st = Stream.snapshot ds.stream in
      let certain = if missing_only then None else st.Stream.certain in
      (* The warm path: a per-(aggregate, predicate) incremental engine
         re-solves from the previous optimum's basis with pure bound
         changes. Reserved for fully-admitted COUNT/SUM requests with
         no per-request deadline — a request that asked for
         a clipped budget keeps the budgeted ladder's degradation
         contract (timeout_ms 0 must still answer trivial with
         deadline_hit, not exact). Anything else (or a starved engine)
         takes the full path. *)
      let incremental = ref false in
      let warm =
        if
          level = Admission.Full && timeout_ms = None
          && Pc_core.Incremental.supported query
        then
          Some
            (fun budget ->
              let a =
                warm_rebound ds query ~part ~budget ~consumed:st.Stream.consumed
              in
              incremental := Option.is_some a;
              a)
        else None
      in
      let outcome =
        Bounds.bound_budgeted ~opts ~budget ?certain ~fdd:ds.fdd ?warm
          st.Stream.residual query
      in
      let s = outcome.Bounds.stats in
      let r =
        {
          r with
          T.admission = Some level;
          stats = Some s;
          incremental = !incremental;
        }
      in
      let reply =
        J.Obj
          ([
             ("ok", J.Bool true);
             ("op", J.Str "bound");
             ("answer", answer_value outcome.Bounds.answer);
             ("provenance", J.Str (Bounds.provenance_name s.Bounds.provenance));
             ("degraded", J.Bool (T.degraded r));
             ("admission", J.Str (Admission.level_name level));
             ("stats", stats_value s);
           ]
          @ if r.T.incremental then [ ("incremental", J.Bool true) ] else [])
      in
      (* Only exact, fully-admitted replies are reusable: degraded ones
         encode this request's budget race, not the query's answer.
         Store the serialized bytes so a hit is byte-identical. The meta
         records which PCs the reply can depend on, so ingestion evicts
         delta-scoped instead of flushing; the pinned snapshot version
         fences the store against a batch that published (and swept the
         cache) while this reply was being computed — without it the
         stale bytes would land after the sweep and be served at the new
         version. *)
      if level = Admission.Full && s.Bounds.provenance = Bounds.Exact then begin
        let meta =
          match meta with
          | Some m -> m
          | None ->
              {
                Cache.pcs =
                  Pc_predicate.Fdd.active_pcs ~query:query.Q.where_ ds.fdd;
                where_ = query.Q.where_;
                missing_only;
              }
        in
        let text = J.to_string reply in
        Cache.store ds.cache ~meta ~version:st.Stream.version ~front
          ~parsed:(query, part) ckey text;
        (Rtext text, r)
      end
      else (Rjson reply, r))

(* A miss, first or refill: the certain rows are read by attribute
   name, so a query the certain schema cannot answer is the client's
   error, not a solver exception. *)
let miss t ds r query ~part ~ckey ~front ~timeout_ms ~missing_only ~meta =
  let r = { r with T.cache = W.Miss } in
  match
    match Stream.schema ds.stream with
    | Some schema when not missing_only -> Q.check_schema schema query
    | _ -> Ok ()
  with
  | Error msg -> fail r "bad-request" msg
  | Ok () ->
      compute_bound t ds r query ~part ~ckey ~front ~timeout_ms ~missing_only
        ~meta

let handle_bound t r v =
  match str_field v "query" with
  | None -> fail r "bad-request" "bound: missing string field \"query\""
  | Some qtext ->
      with_dataset t r v (fun _ ds r ->
          let timeout_ms = num_field v "timeout_ms" in
          let missing_only =
            Option.value (bool_field v "missing_only") ~default:false
          in
          (* Cache lookup happens before admission: a hit costs no
             compute, so it must not occupy an in-flight slot or be
             crushed by load it does not add to. A text this cache has
             answered before hits, or refills its emptied entry,
             without a parse. *)
          let front = Cache.front_key ~text:qtext ~missing_only ~timeout_ms in
          match Cache.find_front ds.cache front with
          | Cache.Hit text -> (Rtext text, { r with T.cache = W.Hit })
          | Cache.Refill f ->
              miss t ds r f.Cache.query ~part:f.Cache.part ~ckey:f.Cache.key
                ~front ~timeout_ms ~missing_only ~meta:(Some f.Cache.meta)
          | Cache.Absent -> (
              match Pc_parse.Query_parser.parse qtext with
              | exception Failure msg -> fail r "parse-error" msg
              | query -> (
                  let part = Cache.query_part query in
                  let ckey =
                    Cache.key_of_part ~digest:ds.digest part ~missing_only
                      ~timeout_ms
                  in
                  match Cache.find ds.cache ~front ckey with
                  | Some text -> (Rtext text, { r with T.cache = W.Hit })
                  | None ->
                      miss t ds r query ~part ~ckey ~front ~timeout_ms
                        ~missing_only ~meta:None)))

(* ------------------------------------------------------------------ *)
(* Streaming ingestion ops                                             *)
(* ------------------------------------------------------------------ *)

let ingest_reply ~op ~dname (info : Stream.info) ~evicted =
  J.Obj
    [
      ("ok", J.Bool true);
      ("op", J.Str op);
      ("dataset", J.Str dname);
      ("batch_id", J.Num (float_of_int info.Stream.batch_id));
      ("version", J.Num (float_of_int info.Stream.version));
      ("rows", J.Num (float_of_int info.Stream.rows));
      ( "touched",
        J.Arr
          (List.map (fun j -> J.Num (float_of_int j)) info.Stream.touched) );
      ("cache_evicted", J.Num (float_of_int evicted));
    ]

(* Evict exactly the cached replies the batch can have changed: entries
   whose predicate's FDD leaves reach a touched PC (missing side), or
   whose selection matches a batch row (certain side). Runs as the
   stream's [before_publish] hook — inside the writer critical section,
   before the new snapshot is visible — so the cache never serves a
   pre-ingest reply at the post-ingest version, and the version fence
   is up before any reader can pin the new snapshot. *)
let invalidate_for ds (info : Stream.info) batch =
  let rows =
    match batch with
    | None -> None
    | Some b ->
        Some
          ( Pc_data.Batch.schema b,
            Pc_data.Relation.tuples (Pc_data.Batch.to_relation b) )
  in
  let n =
    Cache.invalidate ds.cache ~version:info.Stream.version
      ~touched:info.Stream.touched ~rows
  in
  Counter.add c_ingest_evicted n;
  n

(* The skeleton [append] and [retract] share: resolve the dataset, run
   [write] inside the op's span — handing it the publish hook for the
   batch whose rows decide certain-side eviction — and reply with the
   published batch's info. *)
let handle_ingest t r v ~op ~ingest write =
  with_dataset t r v (fun dname ds r ->
      let evicted = ref 0 in
      let publish batch info = evicted := invalidate_for ds info batch in
      match
        Pc_obs.Trace.with_span ~name:("ingest." ^ op)
          ~attrs:[ ("dataset", dname) ]
          (fun () ->
            let res = write ds publish in
            (match res with
            | Ok (info : Stream.info) when Pc_obs.Trace.enabled () ->
                Pc_obs.Trace.add_attr "rows" (string_of_int info.Stream.rows);
                Pc_obs.Trace.add_attr "evicted" (string_of_int !evicted)
            | _ -> ());
            res)
      with
      | Error (code, msg) -> fail r code msg
      | Ok info ->
          ( Rjson (ingest_reply ~op ~dname info ~evicted:!evicted),
            { r with T.ingest = Some (ingest info) } ))

let published code = function
  | Ok (info, _snap) -> Ok info
  | Error msg -> Error (code, msg)

let handle_append t r v =
  match str_field v "csv" with
  | None -> fail r "bad-request" "append: missing string field \"csv\""
  | Some csv ->
      handle_ingest t r v ~op:"append"
        ~ingest:(fun info -> T.Appended info.Stream.rows)
        (fun ds publish ->
          match
            Pc_data.Batch.of_csv_string ?schema:(Stream.schema ds.stream) csv
          with
          | exception (Failure msg | Invalid_argument msg) ->
              Error ("parse-error", msg)
          | batch ->
              published "append-failed"
                (Stream.append ds.stream batch
                   ~before_publish:(publish (Some batch))))

let handle_retract t r v =
  match num_field v "batch" with
  | None -> fail r "bad-request" "retract: missing numeric field \"batch\""
  | Some b when not (Float.is_integer b && b >= 0. && b < float_of_int max_int)
    ->
      fail r "bad-request" "retract: \"batch\" must be a non-negative integer"
  | Some b ->
      let batch_id = int_of_float b in
      handle_ingest t r v ~op:"retract"
        ~ingest:(fun _ -> T.Retracted)
        (fun ds publish ->
          (* the rows must be captured before the retraction removes
             them — they decide certain-side eviction *)
          let batch = Stream.find_batch ds.stream ~batch_id in
          published "retract-failed"
            (Stream.retract ds.stream ~batch_id ~before_publish:(publish batch)))

let gauge a = J.Num (float_of_int (Atomic.get a))

let handle_stats t =
  J.Obj
    ([
       ("ok", J.Bool true);
       ("op", J.Str "stats");
       ("uptime_s", J.Num (Pc_util.Clock.now () -. t.t0));
     ]
    @ T.Sink.totals_json t.sink
        ~live:[ ("inflight", gauge t.inflight); ("connections", gauge t.conns) ]
        ~ingest:true
    @ [
        ("datasets", J.Arr (List.map (fun n -> J.Str n) (dataset_names t)));
        ("draining", J.Bool (Atomic.get t.drain));
        ("faults_injected", J.Num (float_of_int (Fault.total_injected ())));
      ])

(* ------------------------------------------------------------------ *)
(* The telemetry op                                                    *)
(* ------------------------------------------------------------------ *)

let window_labels = [ ("1s", 1.); ("10s", 10.); ("60s", 60.) ]

let window_snapshots t =
  let now = telemetry_now () in
  List.map
    (fun (label, w) ->
      (label, W.snapshot ~now (T.Sink.window t.sink) ~window_s:w))
    window_labels

let window_stats_value (s : W.stats) =
  J.Obj
    [
      ("window_s", J.Num s.W.window_s);
      ("n", J.Num (float_of_int s.W.n));
      ("qps", J.Num s.W.qps);
      ("error_rate", J.Num s.W.error_rate);
      ("degraded_fraction", J.Num s.W.degraded_fraction);
      ("cache_hit_rate", J.Num s.W.cache_hit_rate);
      ("p50_ns", J.Num s.W.p50_ns);
      ("p90_ns", J.Num s.W.p90_ns);
      ("p99_ns", J.Num s.W.p99_ns);
    ]

let handle_telemetry t r v =
  let base rest =
    ( Rjson
        (J.Obj
           (("ok", J.Bool true) :: ("op", J.Str "telemetry")
           :: ("uptime_s", J.Num (Pc_util.Clock.now () -. t.t0))
           :: ("last_id", J.Num (float_of_int (T.Sink.last_id t.sink)))
           :: rest)),
      r )
  in
  match str_field v "view" with
  | Some "prometheus" ->
      let text =
        Telemetry.prometheus
          ~windows:(window_snapshots t)
          ~gauges:
            [
              ("server.inflight", float_of_int (Atomic.get t.inflight));
              ("server.connections", float_of_int (Atomic.get t.conns));
              ("server.uptime_s", Pc_util.Clock.now () -. t.t0);
            ]
      in
      base [ ("view", J.Str "prometheus"); ("text", J.Str text) ]
  | Some "flight" ->
      base
        [
          ("view", J.Str "flight");
          ( "flight",
            T.Flight.to_json (T.Sink.flight t.sink) ~reason:"demand" );
        ]
  | Some view ->
      fail r "bad-request" (Printf.sprintf "telemetry: unknown view %S" view)
  | None ->
      base
        ([
           ("view", J.Str "windows");
           ( "windows",
             J.Obj
               (List.map
                  (fun (label, s) -> (label, window_stats_value s))
                  (window_snapshots t)) );
         ]
        @ T.Sink.totals_json t.sink
            ~live:[ ("inflight", gauge t.inflight) ]
            ~ingest:false)

(* Dispatch one request line. Total: a malformed line, a bad field, or
   any exception escaping a handler becomes a structured error reply,
   with its code on the request's record. *)
let handle_line t r line =
  match J.parse line with
  | Error msg -> fail r "bad-json" msg
  | exception e -> fail r "internal" (Printexc.to_string e)
  | Ok v -> (
      let op = str_field v "op" in
      let r = { r with T.op = Option.value op ~default:"" } in
      try
        match op with
        | None -> fail r "bad-request" "missing string field \"op\""
        | Some "ping" ->
            (Rjson (J.Obj [ ("ok", J.Bool true); ("op", J.Str "pong") ]), r)
        | Some "load" -> handle_load t r v
        | Some "bound" -> handle_bound t r v
        | Some "append" -> handle_append t r v
        | Some "retract" -> handle_retract t r v
        | Some "stats" -> (Rjson (handle_stats t), r)
        | Some "telemetry" -> handle_telemetry t r v
        | Some "shutdown" ->
            ( Rjson
                (J.Obj
                   [
                     ("ok", J.Bool true);
                     ("op", J.Str "shutdown");
                     ("draining", J.Bool true);
                   ]),
              r )
        | Some op -> fail r "unknown-op" (Printf.sprintf "unknown op %S" op)
      with e -> fail r "internal" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Connection loop                                                     *)
(* ------------------------------------------------------------------ *)

(* Socket fault injection lives at the reply boundary: a torn socket
   mid-write or a close-before-reply is indistinguishable from a client
   dying at the worst moment. Both faults only shut the socket down: the
   connection thread stays the fd's one closer, so no other thread's
   descriptor can be closed by a second [close] of a reused number. *)
let send_reply fd line =
  if Fault.enabled () then begin
    if Fault.fire Fault.Sock_close then begin
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise Net.Closed
    end;
    if Fault.fire Fault.Sock_tear then begin
      let half = String.sub line 0 (String.length line / 2) in
      (try Net.write_string fd half with Net.Closed -> ());
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise Net.Closed
    end
  end;
  Net.write_line fd line

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let dump_flight t ~reason =
  match t.cfg.flight_path with
  | None -> ()
  | Some path -> (
      try
        write_file path
          (J.to_string (T.Flight.to_json (T.Sink.flight t.sink) ~reason)
          ^ "\n")
      with Sys_error _ -> ())

(* Answer one request: [handle] builds the reply and the request's
   record, the reply is written, and the completed record goes to the
   sink — before any crash dump, so a dump triggered by this very
   request contains it. A failed send is recorded as an error even when
   the reply was fine: the client never saw the answer. *)
let respond t fd handle =
  let t0 = Pc_util.Clock.now_ns () in
  let reply, r = handle (T.request ~id:(T.Sink.next_id t.sink)) in
  let sent =
    match send_reply fd (reply_text reply) with
    | () -> true
    | exception Net.Closed -> false
  in
  let latency_ns = Int64.to_int (Int64.sub (Pc_util.Clock.now_ns ()) t0) in
  let error =
    if sent then r.T.error else Some (Option.value r.T.error ~default:"send-failed")
  in
  T.Sink.observe t.sink { r with T.t_s = telemetry_now (); latency_ns; error };
  if not sent then dump_flight t ~reason:"crash";
  (r, sent)

let handle_conn t fd =
  let reader = Net.reader ~max_line:t.cfg.max_line ~poll_s:t.cfg.poll_s fd in
  let stop () = Atomic.get t.drain in
  let rec loop () =
    match Net.read_line ~stop reader with
    | `Eof | `Stopped -> ()
    | exception Net.Line_too_long ->
        (* cannot resync a stream with an unbounded line: answer, drop *)
        ignore
          (respond t fd (fun r ->
               fail r "line-too-long" "request line exceeds the configured cap"))
    | `Line line ->
        let r, sent = respond t fd (fun r -> handle_line t r line) in
        if r.T.op = "shutdown" then initiate_drain t else if sent then loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Accept loop and drain                                               *)
(* ------------------------------------------------------------------ *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let flush_artifacts t =
  Option.iter
    (fun path -> write_file path (Pc_obs.Trace.to_chrome_json ()))
    t.cfg.trace_path;
  Option.iter
    (fun path -> write_file path (Pc_obs.Registry.dump_json ()))
    t.cfg.metrics_path;
  dump_flight t ~reason:"drain"

let run t =
  while not (Atomic.get t.drain) do
    match Unix.select [ t.listen_fd ] [] [] t.cfg.poll_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
            ()
        | fd, _ ->
            Atomic.incr t.conns;
            ignore
              (Thread.create
                 (fun () ->
                   Fun.protect
                     ~finally:(fun () ->
                       close_noerr fd;
                       Atomic.decr t.conns)
                     (fun () ->
                       (* last-ditch isolation: a connection thread never
                          takes the server down, whatever escapes *)
                       try handle_conn t fd with _ -> ()))
                 ()))
  done;
  close_noerr t.listen_fd;
  (* connections observe the drain flag within one poll slice; in-flight
     requests run to completion under their budgets *)
  while Atomic.get t.conns > 0 do
    Thread.yield ();
    Unix.sleepf 0.005
  done;
  flush_artifacts t
