(* paper_batch: the paper's §6 Fig. 3/4 protocol in-process, no server.
   20k synthetic sensor rows, the top half by light missing; Corr-PC
   (400 disjoint PCs, greedy path) and Rand-PC (40 overlapping PCs:
   decomposition, LP and MILP); seeded random COUNT and SUM(light)
   queries through [Pc_workload.Runner] with library-default options.

   Rand-PC is drawn as many independent sets of 40, each with its own
   few queries, so one lucky or unlucky draw of overlaps does not set a
   seed's cost. Corr-PC answers are three quarters of a pass: p50 and
   the median over-estimation then fall inside the Corr-PC answers and
   p90 inside the Rand-PC ones, never on the boundary between the two. *)

module Q = Pc_query.Query
module Runner = Pc_workload.Runner
module Counter = Pc_obs.Registry.Counter

type size = {
  rows : int;
  corr : int;  (** Corr-PC partition size *)
  corr_per_agg : int;  (** Corr-PC queries per aggregate *)
  rand : int;  (** PCs per Rand-PC set *)
  rand_sets : int;
  rand_per_agg : int;  (** queries per aggregate per Rand-PC set *)
}

let full =
  { rows = 20_000; corr = 400; corr_per_agg = 180; rand = 40; rand_sets = 32; rand_per_agg = 2 }

let small =
  { rows = 4_000; corr = 100; corr_per_agg = 10; rand = 12; rand_sets = 2; rand_per_agg = 3 }

type ask = {
  label : string;
  baseline : Runner.baseline;
  query : Q.t;
  truth : float option;
}

let attrs = [ "device"; "time" ]

(* Data and PC generation: the set-up this workload pays. *)
let build ~seed size =
  let rng = Pc_util.Rng.create seed in
  let rel = Pc_synth.Sensor.generate rng ~rows:size.rows in
  let missing =
    (Pc_synth.Missing.top_values rel ~attr:"light" ~fraction:0.5).Pc_synth.Missing.missing
  in
  let corr =
    Runner.of_pc_set "Corr-PC"
      (Pc_core.Pc_set.make
         (Pc_core.Generate.corr_partition missing ~attrs ~n:size.corr ()))
  in
  let qrng = Pc_util.Rng.create (seed + 1) in
  let queries n =
    List.concat_map
      (fun agg -> Pc_workload.Querygen.random_queries qrng missing ~attrs ~agg ~n)
      [ Pc_workload.Querygen.Count; Pc_workload.Querygen.Sum "light" ]
  in
  let asks (b : Runner.baseline) qs =
    List.map
      (fun query -> { label = b.Runner.label; baseline = b; query; truth = Q.eval missing query })
      qs
  in
  let prng = Pc_util.Rng.create (seed + 2) in
  let rand () =
    Runner.of_pc_set "Rand-PC"
      (Pc_core.Pc_set.make
         (Pc_core.Generate.rand_pcs prng missing ~attrs ~n:size.rand ()))
  in
  let all =
    Array.of_list
      (asks corr (queries size.corr_per_agg)
      @ List.concat
          (List.init size.rand_sets (fun _ -> asks (rand ()) (queries size.rand_per_agg))))
  in
  (* mixed order, so that host drift during a pass falls on both PC kinds *)
  Pc_util.Rng.shuffle (Pc_util.Rng.create (seed + 3)) all;
  all

let provenance_name = function
  | Some p -> Pc_core.Bounds.provenance_name p
  | None -> "none"

(* One answer; [false] when it fails the oracle. *)
let answer ?(into = []) a =
  let range, prov = a.baseline.Runner.answer a.query in
  match (range, a.truth) with
  | Some r, Some truth when Util.contains ~lo:r.Pc_core.Range.lo ~hi:r.Pc_core.Range.hi truth ->
      List.iter
        (fun qual ->
          Util.Quality.record qual
            ~query:(a.label ^ " " ^ Q.to_string a.query)
            ~count_or_sum:true ~truth
            ~answer:(Printf.sprintf "%h %h" r.Pc_core.Range.lo r.Pc_core.Range.hi)
            ~hi:r.Pc_core.Range.hi ~provenance:(provenance_name prov))
        into;
      true
  | _ -> false

(* The first pass: warm-up, the quality prefix and the digest. *)
let prefix asks =
  let quality = Util.Quality.create () and per_label = Hashtbl.create 2 in
  let failed = ref 0 in
  Array.iter
    (fun a ->
      let q =
        match Hashtbl.find_opt per_label a.label with
        | Some q -> q
        | None ->
            let q = Util.Quality.create () in
            Hashtbl.add per_label a.label q;
            q
      in
      if not (answer ~into:[ quality; q ] a) then incr failed)
    asks;
  (quality, per_label, !failed)

(* One pass over every ask; [add] takes each answer's latency. Returns
   the failed answers. *)
let pass asks add =
  Array.fold_left
    (fun failed a ->
      let s = Util.now_ns () in
      let ok = Pc_obs.Trace.with_span ~name:"bench.bound" (fun () -> answer a) in
      add (Util.ns_since s);
      if ok then failed else failed + 1)
    0 asks

(* Whole passes until [seconds] have passed; per-answer latencies. *)
let timed asks ~seconds =
  let lat = Util.Samples.create () in
  let failed = ref 0 and passes = ref 0 in
  let t0 = Util.now_ns () in
  while !passes = 0 || Util.ns_since t0 < seconds *. 1e9 do
    failed := !failed + pass asks (Util.Samples.add lat);
    incr passes
  done;
  (Util.sorted (Util.Samples.to_array lat), Util.ns_since t0 /. 1e9, !passes, !failed)

let counter_names =
  [ "cells.decompositions"; "cells.emitted"; "lp.solves"; "lp.pivots"; "lp.warm_starts";
    "lp.warm_fallbacks"; "milp.solves"; "milp.nodes"; "sat.calls"; "bound.relaxed";
    "bound.early_stopped"; "bound.trivial"; "incr.engines"; "ingest.incremental_bounds";
    "cache.hits"; "cache.misses"; "ingest.cache_evicted"; "ingest.batches" ]

let read_counters () =
  let tbl = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace tbl n (Counter.get (Counter.make n))) counter_names;
  fun n -> Option.value (Hashtbl.find_opt tbl n) ~default:0

(* Set-ups per run, before the timed phase: one build already spans
   seconds of the host's speed swings, and builds inside the timed phase
   would hold two data sets at once and leave their garbage to it. *)
let setups = 3

let setup ~seed =
  let times = Array.make setups 0. and asks = ref [||] in
  for k = 0 to setups - 1 do
    let t0 = Util.now_ns () in
    asks := build ~seed full;
    times.(k) <- Util.ns_since t0 /. 1e9
  done;
  (!asks, Util.median times)

let p_ms ys p = Util.pct_sorted ys p /. 1e6

let run ~seed ~seconds =
  let asks, setup_s = setup ~seed in
  let quality, per_label, failed0 = prefix asks in
  let before = read_counters () in
  let lat, wall, passes, failed1 = timed asks ~seconds in
  let after = read_counters () in
  let d n = after n - before n in
  let traffic = d "cells.decompositions" > 0 && d "lp.solves" > 0 && d "milp.solves" > 0 in
  Util.say "traffic: cells.decompositions %d, lp.solves %d, milp.solves %d"
    (d "cells.decompositions") (d "lp.solves") (d "milp.solves");
  if not traffic then prerr_endline "perfbench: traffic self-check failed";
  let n = Array.length lat in
  Util.say "timed: %d passes of %d answers in %.3f s; %d samples; bound_p50_ms %.4f ms, \
            p99 %.4f ms (not gated)"
    passes (Array.length asks) wall n (p_ms lat 50.) (p_ms lat 99.);
  Hashtbl.iter
    (fun label q ->
      Util.say "quality %s: median over-estimation %.4f over %d answers" label
        (Util.Quality.overestimate_p50 q) (List.length q.Util.Quality.ratios))
    per_label;
  Util.say "quality: range_overestimate_p50 %.6f; degraded_fraction %.6f of %d; digest %s"
    (Util.Quality.overestimate_p50 quality)
    (1. -. Util.Quality.exact_fraction quality)
    quality.Util.Quality.answers (Util.Quality.digest quality);
  Util.say "setup: median %.4f s of %d" setup_s setups;
  let failed = failed0 + failed1 in
  ( failed = 0 && traffic,
    Array.length asks + n,
    failed,
    [
      Util.m "bound_qps" "1/s" (float_of_int n /. wall);
      Util.m "bound_p90_ms" "ms" (p_ms lat 90.);
      Util.m "range_overestimate_p50" "ratio" (Util.Quality.overestimate_p50 quality);
      Util.m "exact_fraction" "ratio" (Util.Quality.exact_fraction quality);
      Util.m "setup_s" "s" setup_s;
      Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb None);
    ] )

(* Traced run: untraced and traced passes alternate until [seconds]
   have passed, so host drift falls on both alike; the per-layer numbers
   come from the traced passes' spans and the counters of both. *)
let run_traced ~seed ~seconds =
  let asks = build ~seed full in
  let _, _, failed0 = prefix asks in
  let plain = Util.Samples.create () and traced = Util.Samples.create () in
  let layers = Layers.create () in
  let failed = ref failed0 in
  let before = read_counters () in
  let t0 = Util.now_ns () in
  while Util.Samples.count traced = 0 || Util.ns_since t0 < seconds *. 1e9 do
    failed := !failed + pass asks (Util.Samples.add plain);
    Pc_obs.Trace.set_enabled true;
    failed := !failed + pass asks (Util.Samples.add traced);
    Pc_obs.Trace.set_enabled false;
    Layers.collect layers
  done;
  let after = read_counters () in
  Layers.print layers;
  let p50 xs = Util.median (Util.Samples.to_array xs) /. 1e6 in
  let n = Util.Samples.count traced in
  Util.say "traced: p50 %.4f ms over %d samples (untraced %.4f ms over %d)" (p50 traced)
    n (p50 plain) (Util.Samples.count plain);
  let metrics =
    Layers.per_layer layers
      {
        Layers.overhead_ms = p50 traced -. p50 plain;
        handle_p50_us = 0.;
        handle_mean_us = 0.;
        handle_samples = 0;
        client_ns = [||];
        ingest_p50_ms = 0.;
        ingest_samples = 0;
        queries = 2 * n;
        counter = (fun c -> after c - before c);
      }
  in
  (!failed = 0, Array.length asks + (2 * n), !failed, metrics)

(* Digest and over-estimation of a small build's first pass. *)
let prefix_quality ~seed =
  let quality, _, failed = prefix (build ~seed small) in
  (failed, Util.Quality.digest quality, Util.Quality.overestimate_p50 quality)
