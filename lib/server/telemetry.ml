module J = Pc_obs.Json
module R = Pc_obs.Registry
module W = Pc_obs.Window
module Bounds = Pc_core.Bounds
module Counter = R.Counter

type ingest = Appended of int | Retracted

type record = {
  id : int;
  t_s : float;
  op : string;
  dataset : string;
  admission : Admission.level option;
  cache : W.cache_outcome;
  stats : Bounds.stats option;
  incremental : bool;
  ingest : ingest option;
  latency_ns : int;
  error : string option;
}

let request ~id =
  {
    id;
    t_s = 0.;
    op = "";
    dataset = "";
    admission = None;
    cache = W.Uncached;
    stats = None;
    incremental = false;
    ingest = None;
    latency_ns = 0;
    error = None;
  }

let degraded r =
  match r.stats with
  | Some s -> s.Bounds.provenance <> Bounds.Exact
  | None -> false

let record_json r =
  let n i = J.Num (float_of_int i) in
  let name p = J.Str (Bounds.provenance_name p) in
  let stat ~none f = Option.fold ~none ~some:f r.stats in
  J.Obj
    [
      ("id", n r.id);
      ("t_s", J.Num r.t_s);
      ("op", J.Str r.op);
      ("dataset", J.Str r.dataset);
      ( "admission",
        J.Str (Option.fold ~none:"" ~some:Admission.level_name r.admission) );
      ("rungs", J.Arr (stat ~none:[] (fun s -> List.map name s.Bounds.rungs)));
      ("provenance", stat ~none:(J.Str "") (fun s -> name s.Bounds.provenance));
      ( "cache",
        J.Str
          (match r.cache with
          | W.Hit -> "hit"
          | W.Miss -> "miss"
          | W.Uncached -> "uncached") );
      ("sat_calls", n (stat ~none:0 (fun s -> s.Bounds.sat_calls)));
      ("pivots", n (stat ~none:0 (fun s -> s.Bounds.lp_iterations)));
      ("cells", n (stat ~none:0 (fun s -> s.Bounds.cells)));
      ("nodes", n (stat ~none:0 (fun s -> s.Bounds.milp_nodes)));
      ("latency_ns", n r.latency_ns);
      ("error", match r.error with None -> J.Null | Some e -> J.Str e);
    ]

module Flight = struct
  (* One atomic per slot holding an immutable record: a reader sees each
     slot either before or after any overwrite, never torn. [next] hands
     out distinct slot indices, so concurrent writers cannot clobber one
     another — eviction is purely "capacity newer records exist". *)
  type t = { slots : record option Atomic.t array; next : int Atomic.t }

  let create ~capacity =
    let capacity = max 1 capacity in
    { slots = Array.init capacity (fun _ -> Atomic.make None); next = Atomic.make 0 }

  let capacity t = Array.length t.slots
  let pushed t = Atomic.get t.next

  let push t r =
    let i = Atomic.fetch_and_add t.next 1 in
    Atomic.set t.slots.(i mod Array.length t.slots) (Some r)

  let records t =
    let cap = Array.length t.slots in
    let n = Atomic.get t.next in
    let first = if n <= cap then 0 else n - cap in
    let out = ref [] in
    for k = n - 1 downto first do
      match Atomic.get t.slots.(k mod cap) with
      | Some r -> out := r :: !out
      | None -> ()
    done;
    (* records pushed concurrently with this read can land out of id
       order across the wrap point; present them sorted so the dump is
       canonical *)
    List.sort (fun a b -> compare a.id b.id) !out

  let to_json t ~reason =
    J.Obj
      [
        ("schema", J.Str "pcda-flight/1");
        ("reason", J.Str reason);
        ("capacity", J.Num (float_of_int (capacity t)));
        ("pushed", J.Num (float_of_int (pushed t)));
        ("records", J.Arr (List.map record_json (records t)));
      ]
end

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)
(* ------------------------------------------------------------------ *)

(* Process-wide instruments (the [--metrics] face), registered at load
   time so the key set does not depend on whether a server ran. *)
let c_requests = Counter.make "server.requests"
let c_errors = Counter.make "server.errors"
let c_degraded = Counter.make "server.degraded"
let c_crushed = Counter.make "server.admission_crushed"
let c_ingest_batches = Counter.make "ingest.batches"
let c_ingest_rows = Counter.make "ingest.rows"
let c_ingest_retracts = Counter.make "ingest.retracts"
let c_incr_bounds = Counter.make "ingest.incremental_bounds"
let h_request = R.Histogram.make "server.request_ns"
let h_ingest = R.Histogram.make "ingest.ns"

module Sink = struct
  (* A per-instance total tied to its process-wide counter: [bump] is
     the only way either one moves. *)
  type tally = { local : int Atomic.t; global : Counter.t }

  let tally global = { local = Atomic.make 0; global }

  let bump t n =
    ignore (Atomic.fetch_and_add t.local n);
    Counter.add t.global n

  type t = {
    flight : Flight.t;
    window : W.t;
    ids : int Atomic.t;
    errors : tally;
    degraded : tally;
    hits : int Atomic.t;
    misses : int Atomic.t;
    admitted : int Atomic.t array;  (** by [Admission.level_order] *)
    batches : tally;
    rows : tally;
    retracts : tally;
    incremental : tally;
  }

  let create ~flight_capacity =
    {
      flight = Flight.create ~capacity:flight_capacity;
      window = W.create ();
      ids = Atomic.make 0;
      errors = tally c_errors;
      degraded = tally c_degraded;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      admitted = Array.init 4 (fun _ -> Atomic.make 0);
      batches = tally c_ingest_batches;
      rows = tally c_ingest_rows;
      retracts = tally c_ingest_retracts;
      incremental = tally c_incr_bounds;
    }

  let next_id s = 1 + Atomic.fetch_and_add s.ids 1
  let flight s = s.flight
  let window s = s.window

  let observe s r =
    let latency_ns = float_of_int r.latency_ns in
    let error = Option.is_some r.error and degraded = degraded r in
    Flight.push s.flight r;
    W.observe ~now:r.t_s s.window ~latency_ns ~error ~degraded ~cache:r.cache;
    R.Histogram.observe_ns h_request latency_ns;
    if r.op = "append" || r.op = "retract" then
      R.Histogram.observe_ns h_ingest latency_ns;
    Counter.incr c_requests;
    if error then bump s.errors 1;
    if degraded then bump s.degraded 1;
    (match r.cache with
    | W.Hit -> Atomic.incr s.hits
    | W.Miss -> Atomic.incr s.misses
    | W.Uncached -> ());
    (match r.admission with
    | Some level ->
        Atomic.incr s.admitted.(Admission.level_order level);
        if level <> Admission.Full then Counter.incr c_crushed
    | None -> ());
    if r.incremental then bump s.incremental 1;
    match r.ingest with
    | Some (Appended rows) ->
        bump s.batches 1;
        bump s.rows rows
    | Some Retracted -> bump s.retracts 1
    | None -> ()

  let last_id s = Atomic.get s.ids

  let totals_json s ~live ~ingest =
    let n a = J.Num (float_of_int (Atomic.get a)) in
    [
      ("requests", n s.ids);
      ("errors", n s.errors.local);
      ("degraded", n s.degraded.local);
    ]
    @ live
    @ [
        ("cache", J.Obj [ ("hits", n s.hits); ("misses", n s.misses) ]);
        ( "admission",
          J.Obj
            (List.map
               (fun level ->
                 ( Admission.level_name level,
                   n s.admitted.(Admission.level_order level) ))
               [ Admission.Full; Admission.Dual_only; Admission.Early_only;
                 Admission.Floor_only ]) );
      ]
    @
    if ingest then
      [
        ( "ingest",
          J.Obj
            [
              ("batches", n s.batches.local);
              ("rows", n s.rows.local);
              ("retracts", n s.retracts.local);
              ("incremental_bounds", n s.incremental.local);
            ] );
      ]
    else []
end

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let prom_name name =
  let b = Bytes.of_string ("pcda_" ^ name) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

(* The exposition format spells the non-finite values NaN, +Inf and
   -Inf: an undefined gauge must not read as zero. *)
let fnum v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Pc_util.Float_text.to_string v

let prometheus ~windows ~gauges =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  List.iter
    (fun (name, v) ->
      let m = prom_name name in
      line "# HELP %s registry counter %s" m name;
      line "# TYPE %s counter" m;
      line "%s %d" m v)
    (R.counters ());
  List.iter
    (fun h ->
      let name = R.Histogram.name h in
      let m = prom_name name in
      line "# HELP %s registry histogram %s (nanoseconds)" m name;
      line "# TYPE %s summary" m;
      List.iter
        (fun q ->
          line "%s{quantile=\"%.2f\"} %s" m (q /. 100.)
            (fnum (R.Histogram.percentile_ns h q)))
        [ 50.; 90.; 99. ];
      line "%s_sum %d" m (R.Histogram.sum_ns h);
      line "%s_count %d" m (R.Histogram.count h);
      line "%s_min %d" m (R.Histogram.min_ns h);
      line "%s_max %d" m (R.Histogram.max_ns h))
    (R.histograms ());
  let window_gauge field help value_of =
    let m = "pcda_window_" ^ field in
    line "# HELP %s %s" m help;
    line "# TYPE %s gauge" m;
    List.iter
      (fun (label, (s : W.stats)) ->
        line "%s{window=%S} %s" m label (fnum (value_of s)))
      windows
  in
  window_gauge "qps" "requests per second over the window" (fun s -> s.W.qps);
  window_gauge "requests" "requests completed in the window" (fun s ->
      float_of_int s.W.n);
  window_gauge "error_rate" "error fraction over the window" (fun s ->
      s.W.error_rate);
  window_gauge "degraded_fraction" "degraded-reply fraction over the window"
    (fun s -> s.W.degraded_fraction);
  window_gauge "cache_hit_rate" "cache hit rate over the window" (fun s ->
      s.W.cache_hit_rate);
  window_gauge "p50_ns" "windowed latency p50 (nanoseconds)" (fun s ->
      s.W.p50_ns);
  window_gauge "p99_ns" "windowed latency p99 (nanoseconds)" (fun s ->
      s.W.p99_ns);
  List.iter
    (fun (name, v) ->
      let m = prom_name name in
      line "# HELP %s server gauge %s" m name;
      line "# TYPE %s gauge" m;
      line "%s %s" m (fnum v))
    gauges;
  Buffer.contents b
