(* serve_hot and serve_ingest: a real `pcda serve` process driven over
   one connection, closed loop, no think time, by a fixed script. *)

module D = Dataset
module J = Pc_obs.Json
module S = Server_proc

(* ------------------------------------------------------------------ *)
(* Checking replies                                                    *)
(* ------------------------------------------------------------------ *)

(* [Some (answer, provenance, hi)] when the reply is an ok range that
   contains the truth; [None] is a failed operation. *)
let check_bound (q : D.query) reply =
  match J.parse reply with
  | Error _ -> None
  | Ok v -> (
      match (J.member "ok" v, J.member "answer" v, J.member "provenance" v) with
      | Some (J.Bool true), Some answer, Some (J.Str prov) -> (
          match (J.member "kind" answer, J.member "lo" answer, J.member "hi" answer) with
          | Some (J.Str "range"), Some (J.Num lo), Some (J.Num hi)
            when Util.contains ~lo ~hi q.D.truth ->
              Some (J.to_string answer, prov, hi)
          | _ -> None)
      | _ -> None)

let ok_field reply name =
  match J.parse reply with
  | Ok v when J.member "ok" v = Some (J.Bool true) ->
      Option.bind (J.member name v) J.to_num
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Driving the script                                                  *)
(* ------------------------------------------------------------------ *)

type runner = {
  srv : S.t;
  live : int Queue.t;  (** batch ids appended and not yet retracted *)
  verified : (string, string) Hashtbl.t;
      (** query -> the last reply checked for it; a byte-identical
          repeat (a cache hit) needs no second check *)
  mutable attempted : int;
  mutable failed : int;
  mutable evicted : int;  (** cache entries evicted by appends *)
  mutable appends : int;
}

let runner srv =
  {
    srv;
    live = Queue.create ();
    verified = Hashtbl.create 128;
    attempted = 0;
    failed = 0;
    evicted = 0;
    appends = 0;
  }

let failure d what =
  d.failed <- d.failed + 1;
  if d.failed <= 5 then prerr_endline ("perfbench: failed operation: " ^ what)

(* Run one op; [`Bound ns] or [`Ingest ns] is its client latency. *)
let exec d ds ?quality op =
  d.attempted <- d.attempted + 1;
  match op with
  | D.Bound q ->
      let t0 = Util.now_ns () in
      let reply = S.request d.srv q.D.line in
      let dt = Util.ns_since t0 in
      (match Hashtbl.find_opt d.verified q.D.line with
      | Some prev when quality = None && String.equal prev reply -> ()
      | _ -> (
          match check_bound q reply with
          | None -> failure d (q.D.text ^ " -> " ^ reply)
          | Some (answer, provenance, hi) ->
              Hashtbl.replace d.verified q.D.line reply;
              Option.iter
                (fun qual ->
                  Util.Quality.record qual ~query:q.D.text
                    ~count_or_sum:q.D.count_or_sum ~truth:q.D.truth ~answer ~hi
                    ~provenance)
                quality));
      `Bound dt
  | D.Append k ->
      let t0 = Util.now_ns () in
      let reply = S.request d.srv ds.D.chunks.(k) in
      let dt = Util.ns_since t0 in
      (match (ok_field reply "batch_id", ok_field reply "cache_evicted") with
      | Some id, Some ev ->
          Queue.push (int_of_float id) d.live;
          d.appends <- d.appends + 1;
          d.evicted <- d.evicted + int_of_float ev
      | _ -> failure d ("append -> " ^ reply));
      `Ingest dt
  | D.Retract ->
      let line =
        Printf.sprintf {|{"op":"retract","batch":%d}|} (Queue.pop d.live)
      in
      let t0 = Util.now_ns () in
      let reply = S.request d.srv line in
      let dt = Util.ns_since t0 in
      if ok_field reply "batch_id" = None then failure d ("retract -> " ^ reply);
      `Ingest dt

(* Spawn, load, warm up: the set-up a user pays before the first timed
   request. The warm-up replies open the quality prefix. *)
let setup ~pcda ~workdir ~args ds ~ingest =
  let t0 = Util.now_ns () in
  let srv = S.spawn ~pcda ~workdir ~args in
  let d = runner srv in
  List.iter
    (fun name ->
      let load =
        J.to_string
          (J.Obj
             [ ("op", J.Str "load"); ("name", J.Str name); ("constraints", J.Str ds.D.dsl) ])
      in
      d.attempted <- d.attempted + 1;
      match ok_field (S.request srv load) "constraints" with
      | Some n when int_of_float n = ds.D.n_pcs -> ()
      | _ -> failure d "load")
    [ "default"; "sweep" ];
  let quality = Util.Quality.create () in
  List.iter
    (fun op -> ignore (exec d ds ~quality op))
    (D.sweep_ops ds @ D.warmup_ops ds ~ingest);
  (d, quality, Util.ns_since t0 /. 1e9)

type phase = {
  bound_ns : float array;  (** sorted *)
  ingest_ns : float array;  (** sorted *)
  wall_s : float;
  steps : int;
}

(* Run whole steps until [seconds] have passed and the quality prefix
   is complete, in [segments] equal parts with [between] run (and kept
   out of the timed wall clock) between each two. *)
let timed ?(segments = 1) ?(between = ignore) d ds ~ingest ~seconds ~quality =
  let bound = Util.Samples.create () and ing = Util.Samples.create () in
  let prefix = D.prefix_steps ~ingest in
  let limit = seconds /. float_of_int segments *. 1e9 in
  let i = ref 0 and wall_s = ref 0. in
  for k = 1 to segments do
    if k > 1 then between ();
    let t0 = Util.now_ns () in
    while !i < prefix || Util.ns_since t0 < limit do
      let quality = if !i < prefix then Some quality else None in
      List.iter
        (fun op ->
          match exec d ds ?quality op with
          | `Bound dt -> Util.Samples.add bound dt
          | `Ingest dt -> Util.Samples.add ing dt)
        (D.step_ops ds ~ingest !i);
      incr i
    done;
    wall_s := !wall_s +. (Util.ns_since t0 /. 1e9)
  done;
  {
    bound_ns = Util.sorted (Util.Samples.to_array bound);
    ingest_ns = Util.sorted (Util.Samples.to_array ing);
    wall_s = !wall_s;
    steps = !i;
  }

let p_ms ys p = Util.pct_sorted ys p /. 1e6

(* ------------------------------------------------------------------ *)
(* Traffic self-checks                                                 *)
(* ------------------------------------------------------------------ *)

(* The layers each workload claims to load, read from the server's own
   registry over the timed phase. *)
let traffic_ok ~ingest before after =
  let dl = S.delta before after in
  let hits = dl "cache.hits" and misses = dl "cache.misses" in
  let hit_ratio = Util.ratio hits (hits + misses) in
  Util.say "traffic: cache hits %d misses %d (ratio %.4f), bound.calls %d, \
            lp.solves %d, incr.rebounds_warm %d, ingest.cache_evicted %d"
    hits misses hit_ratio (dl "bound.calls") (dl "lp.solves")
    (dl "incr.rebounds_warm") (dl "ingest.cache_evicted");
  let ok =
    if ingest then
      hits > 0 && misses > 0
      && dl "incr.rebounds_warm" > 0
      && dl "ingest.cache_evicted" > 0
    else hit_ratio >= 0.99 && dl "bound.calls" = 0 && dl "lp.solves" = 0
  in
  if not ok then prerr_endline "perfbench: traffic self-check failed";
  ok

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                *)
(* ------------------------------------------------------------------ *)

(* Set-ups per run. A shared host's speed swings over seconds, so the
   timed phase is cut into [setups] segments with one more set-up
   (spawn, load, warm-up, shutdown) between each two: the set-ups then
   see the same mix of host speeds as the timed figures, and the median
   is as steady as they are. Every set-up's warm-up must give the same
   answers. *)
let setups = 7

let run ~pcda ~workdir ~seed ~seconds ~ingest =
  let ds = D.make ~seed in
  let d, quality, s0 = setup ~pcda ~workdir ~args:[] ds ~ingest in
  let times = ref [ s0 ] and digests = ref [ Util.Quality.digest quality ] in
  let attempted = ref 0 and failed = ref 0 in
  let another_setup () =
    let d', q', s = setup ~pcda ~workdir ~args:[] ds ~ingest in
    S.shutdown d'.srv;
    times := s :: !times;
    digests := Util.Quality.digest q' :: !digests;
    attempted := !attempted + d'.attempted;
    failed := !failed + d'.failed
  in
  let before = S.counters d.srv in
  let ph =
    timed ~segments:setups ~between:another_setup d ds ~ingest ~seconds ~quality
  in
  let after = S.counters d.srv in
  let setup_s = Util.median (Array.of_list !times) in
  let warm_digests = List.sort_uniq compare !digests in
  let rss = Util.peak_rss_mb (Some d.srv.S.pid) in
  S.shutdown d.srv;
  let attempted = !attempted + d.attempted and failed = !failed + d.failed in
  let traffic = traffic_ok ~ingest before after in
  let nb = Array.length ph.bound_ns in
  let degraded = 1. -. Util.Quality.exact_fraction quality in
  Util.say "timed: %d steps in %.3f s; %d bound samples; bound_p50_ms %.4f ms, \
            p99 %.4f ms (not gated)"
    ph.steps ph.wall_s nb (p_ms ph.bound_ns 50.) (p_ms ph.bound_ns 99.);
  if ingest then
    Util.say "ingest: ingest_p50_ms %.4f over %d append/retract samples; \
              %.2f cache entries evicted per append"
      (p_ms ph.ingest_ns 50.) (Array.length ph.ingest_ns)
      (Util.ratio d.evicted d.appends);
  Util.say "quality: range_overestimate_p50 %.6f over %d COUNT/SUM answers; \
            degraded_fraction %.6f of %d; digest %s"
    (Util.Quality.overestimate_p50 quality)
    (List.length quality.Util.Quality.ratios)
    degraded quality.Util.Quality.answers (Util.Quality.digest quality);
  Util.say "setup: median %.4f s of %d; warm-up digests agree: %b" setup_s setups
    (List.length warm_digests = 1);
  let correct = failed = 0 && traffic && List.length warm_digests = 1 in
  ( correct,
    attempted,
    failed,
    [
      Util.m "bound_qps" "1/s" (float_of_int nb /. ph.wall_s);
      Util.m "bound_p90_ms" "ms" (p_ms ph.bound_ns 90.);
      Util.m "range_overestimate_p50" "ratio" (Util.Quality.overestimate_p50 quality);
      Util.m "exact_fraction" "ratio" (Util.Quality.exact_fraction quality);
      Util.m "setup_s" "s" setup_s;
      Util.m "peak_rss_mb" "MB" rss;
    ] )

(* The digest and over-estimation of one fresh server over the warm-up
   plus the quality prefix: what the self-test compares. *)
let prefix_quality ~pcda ~workdir ~seed ~ingest =
  let ds = D.make ~seed in
  let d, quality, _ = setup ~pcda ~workdir ~args:[] ds ~ingest in
  ignore (timed d ds ~ingest ~seconds:0. ~quality);
  S.shutdown d.srv;
  (d.failed, Util.Quality.digest quality, Util.Quality.overestimate_p50 quality)
