(* Per-layer self time from the in-memory trace.

   The bench wraps each call into a layer in its own span; the
   library's spans (decompose, lp.solve, milp.solve, ...) nest under
   them. A span's self time is its duration minus the durations of its
   nearest descendants that belong to another measured layer. Spans not
   listed in [layer_of] (bound, rung.full, sat.solve, ...) are
   transparent: their time stays with the measured span around them. *)

module Trace = Pc_obs.Trace

(* A replayed request's whole duration (not its self time): what the
   served request's handle time compares to. *)
let whole_request = "pc_server.replay_request"

(* span name -> per-layer metric prefix *)
let layer_of = function
  | "op.bound" | "op.append" | "op.retract" -> Some whole_request
  | "json.parse" -> Some "pc_obs.json_parse"
  | "json.print" -> Some "pc_obs.json_print"
  | "query.parse" -> Some "pc_parse.query_parse"
  | "cache.find" -> Some "pc_server.cache_find"
  | "cache.store" -> Some "pc_server.cache_store"
  | "cache.invalidate" -> Some "pc_server.cache_invalidate"
  | "fdd.compile" -> Some "pc_predicate.fdd_compile"
  | "fdd.active_pcs" -> Some "pc_predicate.active_pcs"
  | "bench.bound" -> Some "pc_core.bound_self"
  | "decompose" -> Some "pc_core.decompose"
  | "incr.create" -> Some "pc_core.incr_create"
  | "incr.rebound" -> Some "pc_core.incr_rebound"
  | "lp.solve" -> Some "pc_lp.solve_self"
  | "milp.solve" -> Some "pc_milp.solve_self"
  | "store.append" -> Some "pc_store.append"
  | "store.retract" -> Some "pc_store.retract"
  | "batch.parse" -> Some "pc_data.batch_parse"
  | _ -> None

(* The timed layers reported per call (p50 self time in us, call count,
   total self time in ms). Order is the report order. *)
let timed =
  [
    "pc_obs.json_parse";
    "pc_obs.json_print";
    "pc_parse.query_parse";
    "pc_server.cache_find";
    "pc_server.cache_store";
    "pc_server.cache_invalidate";
    "pc_predicate.active_pcs";
    "pc_core.bound_self";
    "pc_core.decompose";
    "pc_core.incr_create";
    "pc_core.incr_rebound";
    "pc_lp.solve_self";
    "pc_milp.solve_self";
    "pc_store.append";
    "pc_store.retract";
    "pc_data.batch_parse";
  ]

(* Self-time samples by layer prefix. *)
type t = (string, Util.Samples.t) Hashtbl.t

let create () : t = Hashtbl.create 32

(* Add the self times of every span recorded since the last call, then
   drop the spans, so a long traced run holds one pass of spans at a
   time. *)
let collect (by : t) =
  let get prefix =
    match Hashtbl.find_opt by prefix with
    | Some l -> l
    | None ->
        let l = Util.Samples.create () in
        Hashtbl.add by prefix l;
        l
  in
  (* Spans are sorted by start; a parent opens no later than its child
     and ends no earlier. Ties on start put the longer span first. *)
  let spans =
    List.stable_sort
      (fun (a : Trace.span) (b : Trace.span) ->
        match Int64.compare a.Trace.t0_ns b.Trace.t0_ns with
        | 0 -> Int64.compare b.Trace.dur_ns a.Trace.dur_ns
        | c -> c)
      (Trace.spans ())
  in
  (* stack of open measured spans: (end_ns, prefix, dur, child total) *)
  let stack = ref [] in
  let close (_, prefix, dur, children) =
    let self = if prefix = whole_request then 0. else !children in
    Util.Samples.add (get prefix) (Int64.to_float dur -. self)
  in
  let rec pop_until t =
    match !stack with
    | ((e, _, _, _) as top) :: rest when Int64.compare e t <= 0 ->
        close top;
        stack := rest;
        pop_until t
    | _ -> ()
  in
  List.iter
    (fun (s : Trace.span) ->
      pop_until s.Trace.t0_ns;
      match layer_of s.Trace.name with
      | None -> ()
      | Some prefix ->
          (match !stack with
          | (_, _, _, children) :: _ ->
              children := !children +. Int64.to_float s.Trace.dur_ns
          | [] -> ());
          stack :=
            (Int64.add s.Trace.t0_ns s.Trace.dur_ns, prefix, s.Trace.dur_ns, ref 0.)
            :: !stack)
    spans;
  List.iter close !stack;
  Trace.reset ()

(* The sorted self times of one layer. *)
let lookup (by : t) prefix =
  match Hashtbl.find_opt by prefix with
  | Some l -> Util.sorted (Util.Samples.to_array l)
  | None -> [||]

let p50_us ys = if ys = [||] then 0. else Util.pct_sorted ys 50. /. 1e3
let total_ms ys = Array.fold_left ( +. ) 0. ys /. 1e6

let mean_us ys =
  if ys = [||] then 0. else total_ms ys *. 1e3 /. float_of_int (Array.length ys)

(* The three metrics of one timed layer. *)
let report by prefix =
  let ys = lookup by prefix in
  [
    Util.m (prefix ^ "_us") "us" (p50_us ys);
    Util.m (prefix ^ "_calls") "count" (float_of_int (Array.length ys));
    Util.m (prefix ^ "_total_ms") "ms" (total_ms ys);
  ]

(* What a traced run measured besides the replay's spans. Server-side
   fields are 0 on a workload without a server. *)
type inputs = {
  overhead_ms : float;  (** traced minus untraced bound p50 *)
  handle_p50_us : float;
      (** the server's [server.request_ns] p50, over every request *)
  handle_mean_us : float;
  handle_samples : int;
  client_ns : float array;
      (** sorted latencies of every request the client sent while the
          server was traced, the population [server.request_ns] sees *)
  ingest_p50_ms : float;
  ingest_samples : int;
  queries : int;  (** bound operations in the counted phase *)
  counter : string -> int;  (** registry deltas over the counted phase *)
}

(* Every per-layer metric, in a fixed order, on every workload; a layer
   a workload does not load reports 0 calls. *)
let per_layer by i =
  let c = i.counter in
  let per name base = Util.m name "ratio" (Util.ratio (c base) (max 1 i.queries)) in
  let replay = lookup by whole_request in
  let client_p50 = p50_us i.client_ns and client_mean = mean_us i.client_ns in
  let compile = lookup by "pc_predicate.fdd_compile" in
  [
    Util.m "trace_overhead_p50_ms" "ms" i.overhead_ms;
    Util.m "pc_server.handle_p50_us" "us" i.handle_p50_us;
    Util.m "pc_server.handle_mean_us" "us" i.handle_mean_us;
    Util.m "pc_server.handle_samples" "count" (float_of_int i.handle_samples);
    Util.m "pc_server.client_p50_us" "us" client_p50;
    Util.m "pc_server.client_mean_us" "us" client_mean;
    (* socket, thread wake-up and client: what the server's own
       histogram does not see. The histogram's p50 is a power-of-two
       bucket readout, so the p50 difference is only good to a bucket;
       the mean difference is exact. *)
    Util.m "pc_server.unattributed_p50_us" "us" (client_p50 -. i.handle_p50_us);
    Util.m "pc_server.unattributed_mean_us" "us" (client_mean -. i.handle_mean_us);
    Util.m "pc_server.replay_p50_us" "us" (p50_us replay);
    Util.m "pc_server.replay_mean_us" "us" (mean_us replay);
    (* means add up where p50s do not: the share of the client's mean
       that the in-process layers plus the unattributed part explain;
       the rest is server work outside the replayed layers *)
    Util.m "pc_server.accounted_fraction" "ratio"
      (if client_mean > 0. then
         (mean_us replay +. client_mean -. i.handle_mean_us) /. client_mean
       else 0.);
    Util.m "pc_server.cache_hit_ratio" "ratio"
      (Util.ratio (c "cache.hits") (c "cache.hits" + c "cache.misses"));
    Util.m "pc_server.cache_evicted_per_append" "ratio"
      (Util.ratio (c "ingest.cache_evicted") (c "ingest.batches"));
    Util.m "pc_server.ingest_p50_ms" "ms" i.ingest_p50_ms;
    Util.m "pc_server.ingest_samples" "count" (float_of_int i.ingest_samples);
  ]
  @ List.concat_map (report by) timed
  @ [
      Util.m "pc_predicate.fdd_compile_ms" "ms"
        (if compile = [||] then 0. else Util.pct_sorted compile 50. /. 1e6);
      Util.m "pc_predicate.fdd_compile_calls" "count" (float_of_int (Array.length compile));
      per "pc_predicate.sat_calls_per_query" "sat.calls";
      per "pc_core.cells_per_query" "cells.emitted";
      Util.m "pc_core.relaxed" "count" (float_of_int (c "bound.relaxed"));
      Util.m "pc_core.early_stopped" "count" (float_of_int (c "bound.early_stopped"));
      Util.m "pc_core.trivial" "count" (float_of_int (c "bound.trivial"));
      Util.m "pc_core.engines_per_incr_bound" "ratio"
        (Util.ratio (c "incr.engines") (c "ingest.incremental_bounds"));
      Util.m "pc_lp.pivots_per_solve" "ratio" (Util.ratio (c "lp.pivots") (c "lp.solves"));
      Util.m "pc_lp.warm_fallback_ratio" "ratio"
        (Util.ratio (c "lp.warm_fallbacks") (c "lp.warm_starts"));
      Util.m "pc_milp.nodes_per_solve" "ratio" (Util.ratio (c "milp.nodes") (c "milp.solves"));
    ]

(* The per-layer p50s, for the human-readable part of the report. *)
let print by =
  List.iter
    (fun prefix ->
      let ys = lookup by prefix in
      if ys <> [||] then
        Util.say "layer %-28s p50 %9.3f us  calls %7d  self total %9.3f ms" prefix
          (p50_us ys) (Array.length ys) (total_ms ys))
    (whole_request :: timed)
