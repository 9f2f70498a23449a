module B = Pc_budget.Budget
module Bounds = Pc_core.Bounds
module J = Pc_obs.Json
module Counter = Pc_obs.Registry.Counter
module Fault = Pc_fault.Fault
module Q = Pc_query.Query
module Stream = Pc_store.Stream

(* Global instruments (the [--metrics] face); per-instance counts for the
   [stats] op live on [t] so several servers in one test process don't
   bleed into each other. *)
let c_requests = Counter.make "server.requests"
let c_errors = Counter.make "server.errors"
let c_degraded = Counter.make "server.degraded"
let c_crushed = Counter.make "server.admission_crushed"
let c_slo_crushed = Counter.make "server.slo_crushed"
let h_request = Pc_obs.Registry.Histogram.make "server.request_ns"

(* Streaming-ingestion instruments. *)
let c_ingest_batches = Counter.make "ingest.batches"
let c_ingest_rows = Counter.make "ingest.rows"
let c_ingest_retracts = Counter.make "ingest.retracts"
let c_ingest_evicted = Counter.make "ingest.cache_evicted"
let c_incr_bounds = Counter.make "ingest.incremental_bounds"
let h_ingest = Pc_obs.Registry.Histogram.make "ingest.ns"

module W = Pc_obs.Window

type config = {
  host : string;
  port : int;
  base_spec : B.spec;
  opts : Bounds.opts;
  policy : Admission.policy;
  max_line : int;
  poll_s : float;
  trace_path : string option;
  metrics_path : string option;
  flight_path : string option;
  flight_capacity : int;
  cache : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    base_spec = B.unlimited_spec;
    opts = { Bounds.default_opts with Bounds.strategy = Pc_core.Cells.Fdd };
    policy = Admission.policy ~max_inflight:64 ();
    max_line = 16 * 1024 * 1024;
    poll_s = 0.1;
    trace_path = None;
    metrics_path = None;
    flight_path = None;
    flight_capacity = 512;
    cache = true;
  }

type dataset = {
  set : Pc_core.Pc_set.t;  (** the base (load-time) constraint set *)
  fdd : Pc_predicate.Fdd.compiled option;
      (** compiled once at load when the configured strategy is [Fdd] *)
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
  n_requests : int Atomic.t;
  n_errors : int Atomic.t;
  n_degraded : int Atomic.t;
  n_hits : int Atomic.t;  (** cache hits, this instance *)
  n_misses : int Atomic.t;
  n_append_batches : int Atomic.t;
  n_append_rows : int Atomic.t;
  n_retracts : int Atomic.t;
  n_incremental : int Atomic.t;  (** bounds served by the warm engine *)
  n_admitted : int Atomic.t array;  (** per admission level, by order *)
  req_id : int Atomic.t;  (** monotonically increasing request ids *)
  window : W.t;  (** live SLO windows (1 s / 10 s / 60 s snapshots) *)
  flight : Telemetry.Flight.t;  (** last-N request records, always on *)
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
    n_requests = Atomic.make 0;
    n_errors = Atomic.make 0;
    n_degraded = Atomic.make 0;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_append_batches = Atomic.make 0;
    n_append_rows = Atomic.make 0;
    n_retracts = Atomic.make 0;
    n_incremental = Atomic.make 0;
    n_admitted = Array.init 4 (fun _ -> Atomic.make 0);
    req_id = Atomic.make 0;
    window = W.create ();
    flight = Telemetry.Flight.create ~capacity:cfg.flight_capacity;
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
    let certain = Option.map (fun text -> Pc_data.Csv.read_string text) csv in
    let fdd =
      if t.cfg.opts.Bounds.strategy = Pc_core.Cells.Fdd then
        Some
          (Pc_predicate.Fdd.compile
             (Array.of_list
                (List.map
                   (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred)
                   (Pc_core.Pc_set.pcs set))))
      else None
    in
    (set, certain, fdd, Cache.digest_set set ~csv)
  with
  | set, certain, fdd, digest ->
      let stream = Pc_store.Stream.create ?certain ?fdd set in
      Mutex.lock t.mu;
      Hashtbl.replace t.datasets name
        {
          set;
          fdd;
          digest;
          cache = Cache.create ();
          stream;
          engines = Hashtbl.create 8;
          engines_mu = Mutex.create ();
        };
      Mutex.unlock t.mu;
      Ok
        ( Pc_core.Pc_set.size set,
          match certain with
          | None -> 0
          | Some r -> Pc_data.Relation.cardinality r )
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let find_dataset t name =
  Mutex.lock t.mu;
  let d = Hashtbl.find_opt t.datasets name in
  Mutex.unlock t.mu;
  d

let dataset_names t =
  Mutex.lock t.mu;
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.datasets [] in
  Mutex.unlock t.mu;
  List.sort String.compare names

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

(* A handler's reply: either a JSON value still to be serialized, or the
   exact bytes of a cached reply. Cached entries are only ever stored
   for ok replies, so error accounting needs to inspect [Rjson] alone. *)
type reply = Rjson of J.value | Rtext of string

let reply_text = function Rjson v -> J.to_string v | Rtext s -> s

let reply_is_error = function
  | Rjson (J.Obj (("ok", J.Bool false) :: _)) -> true
  | Rjson _ | Rtext _ -> false

let err_value code msg =
  J.Obj
    [
      ("ok", J.Bool false);
      ("error", J.Obj [ ("code", J.Str code); ("msg", J.Str msg) ]);
    ]

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
      ("elapsed_ms", J.Num (s.Bounds.elapsed *. 1e3));
      ("deadline_hit", J.Bool s.Bounds.deadline_hit);
    ]

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let str_field v name = Option.bind (J.member name v) J.to_str
let num_field v name = Option.bind (J.member name v) J.to_num
let bool_field v name = Option.bind (J.member name v) J.to_bool

(* The request-scoped telemetry accumulator: one per request line,
   filled in as the request traverses admission, the cache, and the
   ladder, then sealed into a [Telemetry.record] at the send boundary
   (where the latency is known). Mutable because the interesting fields
   are discovered deep inside [handle_bound]. *)
type pending = {
  p_id : int;
  mutable p_op : string;
  mutable p_dataset : string;
  mutable p_admission : string;
  mutable p_rungs : string list;
  mutable p_provenance : string;
  mutable p_cache : W.cache_outcome;
  mutable p_degraded : bool;
  mutable p_sat : int;
  mutable p_pivots : int;
  mutable p_cells : int;
  mutable p_nodes : int;
}

let make_pending id =
  {
    p_id = id;
    p_op = "";
    p_dataset = "";
    p_admission = "";
    p_rungs = [];
    p_provenance = "";
    p_cache = W.Uncached;
    p_degraded = false;
    p_sat = 0;
    p_pivots = 0;
    p_cells = 0;
    p_nodes = 0;
  }

let reply_error_code = function
  | Rjson (J.Obj (("ok", J.Bool false) :: rest)) -> (
      match List.assoc_opt "error" rest with
      | Some (J.Obj fields) -> (
          match List.assoc_opt "code" fields with
          | Some (J.Str c) -> Some c
          | _ -> Some "error")
      | _ -> Some "error")
  | Rjson _ | Rtext _ -> None

let seal_record pend ~t_s ~latency_ns ~error =
  {
    Telemetry.id = pend.p_id;
    t_s;
    op = pend.p_op;
    dataset = pend.p_dataset;
    admission = pend.p_admission;
    rungs = pend.p_rungs;
    provenance = pend.p_provenance;
    cache =
      (match pend.p_cache with
      | W.Hit -> "hit"
      | W.Miss -> "miss"
      | W.Uncached -> "uncached");
    sat_calls = pend.p_sat;
    pivots = pend.p_pivots;
    cells = pend.p_cells;
    nodes = pend.p_nodes;
    latency_ns;
    error;
  }

let handle_load t v =
  match str_field v "name" with
  | None -> err_value "bad-request" "load: missing string field \"name\""
  | Some name -> (
      match str_field v "constraints" with
      | None ->
          err_value "bad-request" "load: missing string field \"constraints\""
      | Some constraints -> (
          let csv = str_field v "csv" in
          match load_dataset t ~name ~constraints ?csv () with
          | Error msg -> err_value "parse-error" msg
          | Ok (n_constraints, n_rows) ->
              J.Obj
                [
                  ("ok", J.Bool true);
                  ("op", J.Str "load");
                  ("name", J.Str name);
                  ("constraints", J.Num (float_of_int n_constraints));
                  ("certain_rows", J.Num (float_of_int n_rows));
                ]))

(* Re-bound [query] on the dataset's engine, built on first use; both
   are charged to the request's [budget]. *)
let warm_rebound t ds ~fdd query ~budget ~consumed =
  let ekey =
    Cache.key ~digest:"engine" ~query ~missing_only:false ~timeout_ms:None
  in
  Mutex.lock ds.engines_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock ds.engines_mu)
    (fun () ->
      let eng =
        match Hashtbl.find_opt ds.engines ekey with
        | Some e -> e
        | None ->
            if Hashtbl.length ds.engines >= max_engines then
              Hashtbl.reset ds.engines;
            let e =
              Pc_core.Incremental.create ~tighten:t.cfg.opts.Bounds.tighten
                ~budget ~fdd ds.set query
            in
            Hashtbl.add ds.engines ekey e;
            e
      in
      Option.bind eng (Pc_core.Incremental.rebound ~budget ~consumed))

let handle_bound t pend v =
  match str_field v "query" with
  | None -> Rjson (err_value "bad-request" "bound: missing string field \"query\"")
  | Some qtext -> (
      let dname = Option.value (str_field v "dataset") ~default:"default" in
      match find_dataset t dname with
      | None ->
          Rjson
            (err_value "unknown-dataset"
               (Printf.sprintf "no dataset %S loaded" dname))
      | Some ds -> (
          pend.p_dataset <- ds.digest;
          match Pc_parse.Query_parser.parse qtext with
          | exception Failure msg -> Rjson (err_value "parse-error" msg)
          | query -> (
              let timeout_ms = num_field v "timeout_ms" in
              let missing_only =
                Option.value (bool_field v "missing_only") ~default:false
              in
              (* Cache lookup happens before admission: a hit costs no
                 compute, so it must not occupy an in-flight slot or be
                 crushed by load it does not add to. *)
              let ckey =
                if t.cfg.cache then
                  Some
                    (Cache.key ~digest:ds.digest ~query ~missing_only
                       ~timeout_ms)
                else None
              in
              match Option.bind ckey (Cache.find ds.cache) with
              | Some text ->
                  pend.p_cache <- W.Hit;
                  Atomic.incr t.n_hits;
                  Rtext text
              | None ->
                  if Option.is_some ckey then begin
                    pend.p_cache <- W.Miss;
                    Atomic.incr t.n_misses
                  end;
                  (* Admission: the level is decided from the in-flight
                     count *before* this request joins it, then the
                     request holds a slot for its whole compute. Drain
                     floors new arrivals so shutdown cannot be outrun by
                     traffic. *)
                  let inflight = Atomic.fetch_and_add t.inflight 1 in
                  Fun.protect
                    ~finally:(fun () -> Atomic.decr t.inflight)
                    (fun () ->
                      let level =
                        if Atomic.get t.drain then Admission.Floor_only
                        else begin
                          let by_load =
                            Admission.level_for t.cfg.policy ~inflight
                          in
                          (* the latency dimension: the live windowed
                             1 s p99 versus the configured SLO — reading
                             it only when an SLO is set keeps the
                             no-SLO hot path snapshot-free *)
                          let by_slo =
                            if
                              t.cfg.policy.Admission.p99_slo_ms = None
                            then Admission.Full
                            else begin
                              let s =
                                W.snapshot ~now:(telemetry_now ()) t.window
                                  ~window_s:1.
                              in
                              let l =
                                Admission.level_for_p99 t.cfg.policy
                                  ~p99_ms:(s.W.p99_ns /. 1e6)
                              in
                              if l <> Admission.Full then
                                Counter.incr c_slo_crushed;
                              l
                            end
                          in
                          Admission.combine by_load by_slo
                        end
                      in
                      Atomic.incr t.n_admitted.(Admission.level_order level);
                      pend.p_admission <- Admission.level_name level;
                      if level <> Admission.Full then Counter.incr c_crushed;
                      let spec = Admission.crush t.cfg.base_spec level in
                      let spec =
                        match timeout_ms with
                        | None -> spec
                        | Some ms ->
                            let s = Float.max 0. (ms /. 1e3) in
                            {
                              spec with
                              B.timeout =
                                (match spec.B.timeout with
                                | None -> Some s
                                | Some t -> Some (Float.min t s));
                            }
                      in
                      let budget = B.start spec in
                      (* Pin one immutable ingestion snapshot: the
                         certain relation, per-PC consumption, and
                         residual PC set below were published together,
                         so this request can never observe a batch's
                         rows without its budget consumption. *)
                      let st = Stream.snapshot ds.stream in
                      let certain =
                        if missing_only then None else st.Stream.certain
                      in
                      (* The warm path: a per-(aggregate, predicate)
                         incremental engine re-solves from the previous
                         optimum's basis with pure bound changes.
                         Reserved for fully-admitted COUNT/SUM requests
                         under an FDD with no per-request deadline — a
                         request that asked for a clipped budget keeps
                         the budgeted ladder's degradation contract
                         (timeout_ms 0 must still answer trivial with
                         deadline_hit, not exact). Anything else (or a
                         starved engine) takes the full path. *)
                      let incremental = ref false in
                      let warm =
                        match ds.fdd with
                        | Some fdd
                          when level = Admission.Full && timeout_ms = None
                               && Pc_core.Incremental.supported query ->
                            Some
                              (fun budget ->
                                let a =
                                  warm_rebound t ds ~fdd query ~budget
                                    ~consumed:st.Stream.consumed
                                in
                                incremental := Option.is_some a;
                                a)
                        | _ -> None
                      in
                      let outcome =
                        Bounds.bound_budgeted ~opts:t.cfg.opts ~budget ?certain
                          ?fdd:ds.fdd ?warm st.Stream.residual query
                      in
                      let incremental = !incremental in
                      if incremental then begin
                        Counter.incr c_incr_bounds;
                        Atomic.incr t.n_incremental
                      end;
                      let s = outcome.Bounds.stats in
                      let degraded = s.Bounds.provenance <> Bounds.Exact in
                      pend.p_rungs <-
                        List.map Bounds.provenance_name s.Bounds.rungs;
                      pend.p_provenance <-
                        Bounds.provenance_name s.Bounds.provenance;
                      pend.p_degraded <- degraded;
                      pend.p_sat <- s.Bounds.sat_calls;
                      pend.p_pivots <- s.Bounds.lp_iterations;
                      pend.p_cells <- s.Bounds.cells;
                      pend.p_nodes <- s.Bounds.milp_nodes;
                      if degraded then begin
                        Counter.incr c_degraded;
                        Atomic.incr t.n_degraded
                      end;
                      let reply =
                        J.Obj
                          ([
                             ("ok", J.Bool true);
                             ("op", J.Str "bound");
                             ("answer", answer_value outcome.Bounds.answer);
                             ( "provenance",
                               J.Str
                                 (Bounds.provenance_name s.Bounds.provenance) );
                             ("degraded", J.Bool degraded);
                             ("admission", J.Str (Admission.level_name level));
                             ("stats", stats_value s);
                           ]
                          @
                          if incremental then [ ("incremental", J.Bool true) ]
                          else [])
                      in
                      (* Only exact, fully-admitted replies are
                         reusable: degraded ones encode this request's
                         budget race, not the query's answer. Store the
                         serialized bytes so a hit is byte-identical.
                         The meta records which PCs the reply can depend
                         on, so ingestion evicts delta-scoped instead of
                         flushing; the pinned snapshot version fences
                         the store against a batch that published (and
                         swept the cache) while this reply was being
                         computed — without it the stale bytes would
                         land after the sweep and be served at the new
                         version. *)
                      match ckey with
                      | Some k
                        when level = Admission.Full
                             && s.Bounds.provenance = Bounds.Exact ->
                          let meta =
                            Option.map
                              (fun fdd ->
                                {
                                  Cache.pcs =
                                    Pc_predicate.Fdd.active_pcs
                                      ~query:query.Q.where_ fdd;
                                  where_ = query.Q.where_;
                                  missing_only;
                                })
                              ds.fdd
                          in
                          let text = J.to_string reply in
                          Cache.store ds.cache ?meta
                            ~version:st.Stream.version k text;
                          Rtext text
                      | _ -> Rjson reply))))

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

let handle_append t pend v =
  match str_field v "csv" with
  | None -> err_value "bad-request" "append: missing string field \"csv\""
  | Some csv -> (
      let dname = Option.value (str_field v "dataset") ~default:"default" in
      match find_dataset t dname with
      | None ->
          err_value "unknown-dataset"
            (Printf.sprintf "no dataset %S loaded" dname)
      | Some ds -> (
          pend.p_dataset <- ds.digest;
          let t0 = Pc_util.Clock.now_ns () in
          let r =
            Pc_obs.Trace.with_span ~name:"ingest.append"
              ~attrs:[ ("dataset", dname) ]
              (fun () ->
                match
                  Pc_data.Batch.of_csv_string
                    ?schema:(Stream.schema ds.stream) csv
                with
                | exception Failure msg -> Error ("parse-error", msg)
                | exception Invalid_argument msg -> Error ("parse-error", msg)
                | batch -> (
                    let evicted = ref 0 in
                    match
                      Stream.append ds.stream batch
                        ~before_publish:(fun info ->
                          evicted := invalidate_for ds info (Some batch))
                    with
                    | Error msg -> Error ("append-failed", msg)
                    | Ok (info, _snap) ->
                        let evicted = !evicted in
                        if Pc_obs.Trace.enabled () then begin
                          Pc_obs.Trace.add_attr "rows"
                            (string_of_int info.Stream.rows);
                          Pc_obs.Trace.add_attr "evicted"
                            (string_of_int evicted)
                        end;
                        Ok (info, evicted)))
          in
          let dt = Int64.to_float (Int64.sub (Pc_util.Clock.now_ns ()) t0) in
          Pc_obs.Registry.Histogram.observe_ns h_ingest dt;
          match r with
          | Error (code, msg) -> err_value code msg
          | Ok (info, evicted) ->
              Counter.incr c_ingest_batches;
              Counter.add c_ingest_rows info.Stream.rows;
              Atomic.incr t.n_append_batches;
              ignore
                (Atomic.fetch_and_add t.n_append_rows info.Stream.rows);
              ingest_reply ~op:"append" ~dname info ~evicted))

let handle_retract t pend v =
  match num_field v "batch" with
  | None -> err_value "bad-request" "retract: missing numeric field \"batch\""
  | Some bid -> (
      let batch_id = int_of_float bid in
      let dname = Option.value (str_field v "dataset") ~default:"default" in
      match find_dataset t dname with
      | None ->
          err_value "unknown-dataset"
            (Printf.sprintf "no dataset %S loaded" dname)
      | Some ds -> (
          pend.p_dataset <- ds.digest;
          let t0 = Pc_util.Clock.now_ns () in
          let r =
            Pc_obs.Trace.with_span ~name:"ingest.retract"
              ~attrs:[ ("dataset", dname) ]
              (fun () ->
                (* the rows must be captured before the retraction
                   removes them — they decide certain-side eviction *)
                let batch = Stream.find_batch ds.stream ~batch_id in
                let evicted = ref 0 in
                match
                  Stream.retract ds.stream ~batch_id
                    ~before_publish:(fun info ->
                      evicted := invalidate_for ds info batch)
                with
                | Error msg -> Error ("retract-failed", msg)
                | Ok (info, _snap) -> Ok (info, !evicted))
          in
          let dt = Int64.to_float (Int64.sub (Pc_util.Clock.now_ns ()) t0) in
          Pc_obs.Registry.Histogram.observe_ns h_ingest dt;
          match r with
          | Error (code, msg) -> err_value code msg
          | Ok (info, evicted) ->
              Counter.incr c_ingest_retracts;
              Atomic.incr t.n_retracts;
              ingest_reply ~op:"retract" ~dname info ~evicted))

let ni a = J.Num (float_of_int (Atomic.get a))

let cache_counters t =
  J.Obj [ ("hits", ni t.n_hits); ("misses", ni t.n_misses) ]

let admission_counters t =
  J.Obj
    (List.map
       (fun level ->
         ( Admission.level_name level,
           ni t.n_admitted.(Admission.level_order level) ))
       [ Admission.Full; Admission.Dual_only; Admission.Early_only;
         Admission.Floor_only ])

let handle_stats t =
  J.Obj
    [
      ("ok", J.Bool true);
      ("op", J.Str "stats");
      ("uptime_s", J.Num (Pc_util.Clock.now () -. t.t0));
      ("requests", ni t.n_requests);
      ("errors", ni t.n_errors);
      ("degraded", ni t.n_degraded);
      ("inflight", ni t.inflight);
      ("connections", ni t.conns);
      ("cache", cache_counters t);
      ("admission", admission_counters t);
      ( "ingest",
        J.Obj
          [
            ("batches", ni t.n_append_batches);
            ("rows", ni t.n_append_rows);
            ("retracts", ni t.n_retracts);
            ("incremental_bounds", ni t.n_incremental);
          ] );
      ("datasets", J.Arr (List.map (fun n -> J.Str n) (dataset_names t)));
      ("draining", J.Bool (Atomic.get t.drain));
      ("faults_injected", J.Num (float_of_int (Fault.total_injected ())));
    ]

(* ------------------------------------------------------------------ *)
(* The telemetry op                                                    *)
(* ------------------------------------------------------------------ *)

let window_labels = [ ("1s", 1.); ("10s", 10.); ("60s", 60.) ]

let window_snapshots t =
  let now = telemetry_now () in
  List.map
    (fun (label, w) -> (label, W.snapshot ~now t.window ~window_s:w))
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

let handle_telemetry t v =
  let base rest =
    J.Obj
      (("ok", J.Bool true) :: ("op", J.Str "telemetry")
      :: ("uptime_s", J.Num (Pc_util.Clock.now () -. t.t0))
      :: ("last_id", ni t.req_id)
      :: rest)
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
          ("flight", Telemetry.Flight.to_json t.flight ~reason:"demand");
        ]
  | Some view ->
      err_value "bad-request"
        (Printf.sprintf "telemetry: unknown view %S" view)
  | None ->
      base
        [
          ("view", J.Str "windows");
          ( "windows",
            J.Obj
              (List.map
                 (fun (label, s) -> (label, window_stats_value s))
                 (window_snapshots t)) );
          ("requests", ni t.n_requests);
          ("errors", ni t.n_errors);
          ("degraded", ni t.n_degraded);
          ("inflight", ni t.inflight);
          ("cache", cache_counters t);
          ("admission", admission_counters t);
        ]

(* Dispatch one request line. Total: every failure mode, including an
   exception escaping a handler, becomes a structured error reply. *)
let handle_line t pend line =
  Atomic.incr t.n_requests;
  Counter.incr c_requests;
  let reply, shutdown =
    match J.parse line with
    | Error msg -> (Rjson (err_value "bad-json" msg), false)
    | Ok v -> (
        let op = str_field v "op" in
        pend.p_op <- Option.value op ~default:"";
        match op with
        | None ->
            (Rjson (err_value "bad-request" "missing string field \"op\""), false)
        | Some "ping" ->
            (Rjson (J.Obj [ ("ok", J.Bool true); ("op", J.Str "pong") ]), false)
        | Some "load" -> (Rjson (handle_load t v), false)
        | Some "bound" -> (handle_bound t pend v, false)
        | Some "append" -> (Rjson (handle_append t pend v), false)
        | Some "retract" -> (Rjson (handle_retract t pend v), false)
        | Some "stats" -> (Rjson (handle_stats t), false)
        | Some "telemetry" -> (Rjson (handle_telemetry t v), false)
        | Some "shutdown" ->
            ( Rjson
                (J.Obj
                   [
                     ("ok", J.Bool true);
                     ("op", J.Str "shutdown");
                     ("draining", J.Bool true);
                   ]),
              true )
        | Some op ->
            ( Rjson (err_value "unknown-op" (Printf.sprintf "unknown op %S" op)),
              false ))
    | exception e ->
        (* [J.parse] returns [result]; this arm only guards against bugs
           in our own dispatch — isolation beats precision here *)
        (Rjson (err_value "internal" (Printexc.to_string e)), false)
  in
  let reply =
    (* crash isolation for the handlers themselves *)
    match reply with
    | r -> r
    | exception e -> Rjson (err_value "internal" (Printexc.to_string e))
  in
  if reply_is_error reply then begin
    Atomic.incr t.n_errors;
    Counter.incr c_errors
  end;
  (reply, shutdown)

(* ------------------------------------------------------------------ *)
(* Connection loop                                                     *)
(* ------------------------------------------------------------------ *)

(* Socket fault injection lives at the reply boundary: a torn socket
   mid-write or a close-before-reply is indistinguishable from a client
   dying at the worst moment. *)
let send_reply fd line =
  if Fault.enabled () then begin
    if Fault.fire Fault.Sock_close then begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise Net.Closed
    end;
    if Fault.fire Fault.Sock_tear then begin
      let half = String.sub line 0 (String.length line / 2) in
      (try Net.write_string fd half with Net.Closed -> ());
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise Net.Closed
    end
  end;
  Net.write_string fd (line ^ "\n")

let dump_flight t ~reason =
  match t.cfg.flight_path with
  | None -> ()
  | Some path -> (
      let content = J.to_string (Telemetry.Flight.to_json t.flight ~reason) in
      try
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc content;
            output_char oc '\n')
      with Sys_error _ -> ())

let handle_conn t fd =
  let reader = Net.reader ~max_line:t.cfg.max_line fd in
  let stop () = Atomic.get t.drain in
  let rec loop () =
    match Net.read_line ~stop ~poll_s:t.cfg.poll_s reader with
    | `Eof | `Stopped -> ()
    | exception Net.Line_too_long ->
        (* cannot resync a stream with an unbounded line: answer, drop *)
        Atomic.incr t.n_errors;
        Counter.incr c_errors;
        (try send_reply fd (J.to_string (err_value "line-too-long" "request line exceeds the configured cap"))
         with Net.Closed -> ())
    | `Line line ->
        let t0 = Pc_util.Clock.now_ns () in
        let pend = make_pending (1 + Atomic.fetch_and_add t.req_id 1) in
        let reply, shutdown = handle_line t pend line in
        let sent =
          match send_reply fd (reply_text reply) with
          | () -> true
          | exception Net.Closed -> false
        in
        let latency_ns =
          Int64.to_float (Int64.sub (Pc_util.Clock.now_ns ()) t0)
        in
        Pc_obs.Registry.Histogram.observe_ns h_request latency_ns;
        (* Seal and publish the request record *before* any crash dump,
           so a dump triggered by this very request contains it. A
           failed send is recorded as an error even when the computed
           reply was fine — the client never saw the answer. *)
        let error =
          match reply_error_code reply with
          | Some _ as e -> e
          | None -> if sent then None else Some "send-failed"
        in
        let now = telemetry_now () in
        Telemetry.Flight.push t.flight
          (seal_record pend ~t_s:now
             ~latency_ns:(int_of_float latency_ns)
             ~error);
        W.observe ~now t.window ~latency_ns
          ~error:(Option.is_some error) ~degraded:pend.p_degraded
          ~cache:pend.p_cache;
        if not sent then dump_flight t ~reason:"crash";
        if shutdown then initiate_drain t else if sent then loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Accept loop and drain                                               *)
(* ------------------------------------------------------------------ *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let flush_artifacts t =
  let write path content =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content)
  in
  (match t.cfg.trace_path with
  | None -> ()
  | Some path -> write path (Pc_obs.Trace.to_chrome_json ()));
  (match t.cfg.metrics_path with
  | None -> ()
  | Some path -> write path (Pc_obs.Registry.dump_json ()));
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
