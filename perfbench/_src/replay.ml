(* In-process replay of a served script for the traced run.

   The same request lines go through the layers' public functions in the
   order [Server.handle_bound], [handle_append] and [handle_retract]
   call them, each call inside a bench span (see [Layers.layer_of]); the
   library's own spans nest underneath. Socket, connection thread,
   admission and telemetry are what this leaves out, so the replay's
   per-request time against the served one is the gap the traced run
   reports. *)

module D = Dataset
module J = Pc_obs.Json
module Q = Pc_query.Query
module Bounds = Pc_core.Bounds
module Cache = Pc_server.Cache
module Stream = Pc_store.Stream
module Fdd = Pc_predicate.Fdd

let span name f = Pc_obs.Trace.with_span ~name f

(* The server's configuration: FDD cells, unlimited budget, cache on. *)
let opts = { Bounds.default_opts with Bounds.strategy = Pc_core.Cells.Fdd }
let max_engines = 32

type t = {
  set : Pc_core.Pc_set.t;
  fdd : Fdd.compiled;
  digest : string;
  cache : Cache.t;
  stream : Stream.t;
  engines : (string, Pc_core.Incremental.t option) Hashtbl.t;
  live : int Queue.t;
}

let load dsl =
  let set = Pc_core.Pc_set.make (Pc_parse.Pc_parser.parse dsl) in
  let fdd =
    span "fdd.compile" (fun () ->
        Fdd.compile
          (Array.of_list
             (List.map (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred)
                (Pc_core.Pc_set.pcs set))))
  in
  {
    set;
    fdd;
    digest = Cache.digest_set set ~csv:None;
    cache = Cache.create ();
    stream = Stream.create ~fdd set;
    engines = Hashtbl.create 8;
    live = Queue.create ();
  }

let request_field line name =
  match span "json.parse" (fun () -> J.parse line) with
  | Ok v -> J.member name v
  | Error e -> Util.fail "replay: bad request line: %s" e

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

(* The warm engine's missing-side answer shifted by the certain
   aggregate, as the server does. *)
let shift_certain (query : Q.t) = function
  | Bounds.Range r, Some c ->
      let sel = Q.selection c query in
      let shift =
        match query.Q.agg with
        | Q.Sum a ->
            if Pc_data.Relation.cardinality sel = 0 then 0.
            else Pc_util.Stat.sum (Pc_data.Relation.column sel a)
        | _ -> float_of_int (Pc_data.Relation.cardinality sel)
      in
      Bounds.Range (Pc_core.Range.shift r shift)
  | a, _ -> a

let is_exact = function
  | Bounds.Range r -> r.Pc_core.Range.lo_exact && r.Pc_core.Range.hi_exact
  | Bounds.Empty | Bounds.Infeasible -> true

let engine t query =
  let ekey = Cache.key ~digest:"engine" ~query ~missing_only:false ~timeout_ms:None in
  match Hashtbl.find_opt t.engines ekey with
  | Some e -> e
  | None ->
      if Hashtbl.length t.engines >= max_engines then Hashtbl.reset t.engines;
      let e =
        span "incr.create" (fun () ->
            Pc_core.Incremental.create ~tighten:opts.Bounds.tighten ~fdd:t.fdd t.set
              query)
      in
      Hashtbl.add t.engines ekey e;
      e

(* One [bound] request line; returns the reply text. *)
let bound t line =
  span "op.bound" (fun () ->
      let qtext =
        match request_field line "query" with
        | Some (J.Str s) -> s
        | _ -> Util.fail "replay: bound without query"
      in
      let query = span "query.parse" (fun () -> Pc_parse.Query_parser.parse qtext) in
      let key = Cache.key ~digest:t.digest ~query ~missing_only:false ~timeout_ms:None in
      match span "cache.find" (fun () -> Cache.find t.cache key) with
      | Some text -> text
      | None ->
          let st = Stream.snapshot t.stream in
          let certain = st.Stream.certain in
          let ladder () =
            span "bench.bound" (fun () ->
                Bounds.bound_budgeted ~opts
                  ~budget:(Pc_budget.Budget.start Pc_budget.Budget.unlimited_spec)
                  ?certain ~fdd:t.fdd st.Stream.residual query)
          in
          let warm =
            if Pc_core.Incremental.supported query then
              match engine t query with
              | None -> None
              | Some e ->
                  span "incr.rebound" (fun () ->
                      Pc_core.Incremental.rebound e ~consumed:st.Stream.consumed)
            else None
          in
          let answer, provenance =
            match warm with
            | Some missing ->
                let a = shift_certain query (missing, certain) in
                (a, if is_exact a then Bounds.Exact else Bounds.Relaxed)
            | None ->
                let o = ladder () in
                (o.Bounds.answer, o.Bounds.stats.Bounds.provenance)
          in
          let reply =
            J.Obj
              [
                ("ok", J.Bool true);
                ("op", J.Str "bound");
                ("answer", answer_value answer);
                ("provenance", J.Str (Bounds.provenance_name provenance));
              ]
          in
          let text = span "json.print" (fun () -> J.to_string reply) in
          if provenance = Bounds.Exact then begin
            let pcs =
              span "fdd.active_pcs" (fun () ->
                  Fdd.active_pcs ~query:query.Q.where_ t.fdd)
            in
            span "cache.store" (fun () ->
                Cache.store t.cache
                  ~meta:{ Cache.pcs; where_ = query.Q.where_; missing_only = false }
                  ~version:st.Stream.version key text)
          end;
          text)

let invalidate t batch (info : Stream.info) =
  let rows =
    Option.map
      (fun b ->
        ( Pc_data.Batch.schema b,
          Pc_data.Relation.tuples (Pc_data.Batch.to_relation b) ))
      batch
  in
  ignore
    (span "cache.invalidate" (fun () ->
         Cache.invalidate t.cache ~version:info.Stream.version
           ~touched:info.Stream.touched ~rows))

let append t line =
  span "op.append" (fun () ->
      let csv =
        match request_field line "csv" with
        | Some (J.Str s) -> s
        | _ -> Util.fail "replay: append without csv"
      in
      let batch =
        span "batch.parse" (fun () ->
            Pc_data.Batch.of_csv_string ?schema:(Stream.schema t.stream) csv)
      in
      match
        span "store.append" (fun () ->
            Stream.append t.stream batch ~before_publish:(invalidate t (Some batch)))
      with
      | Ok (info, _) -> Queue.push info.Stream.batch_id t.live
      | Error e -> Util.fail "replay: append failed: %s" e)

let retract t =
  let batch_id = Queue.pop t.live in
  let line = Printf.sprintf {|{"op":"retract","batch":%d}|} batch_id in
  span "op.retract" (fun () ->
      ignore (request_field line "batch");
      let batch = Stream.find_batch t.stream ~batch_id in
      match
        span "store.retract" (fun () ->
            Stream.retract t.stream ~batch_id ~before_publish:(invalidate t batch))
      with
      | Ok _ -> ()
      | Error e -> Util.fail "replay: retract failed: %s" e)

(* Replay the warm-up and [steps] timed steps; returns (bound ops,
   failed ops). Answers are checked against the same oracle. *)
let run ds ~ingest ~steps =
  let t = load ds.D.dsl in
  let failed = ref 0 and bounds = ref 0 in
  let exec = function
    | D.Bound q ->
        incr bounds;
        if Served.check_bound q (bound t q.D.line) = None then incr failed
    | D.Append k -> append t ds.D.chunks.(k)
    | D.Retract -> retract t
  in
  List.iter exec (D.warmup_ops ds ~ingest);
  for i = 0 to steps - 1 do
    List.iter exec (D.step_ops ds ~ingest i)
  done;
  (!bounds, !failed)
