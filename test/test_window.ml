(* Pc_obs.Window: the sliding-window SLO monitor behind the server's
   live telemetry plane.

   The core correctness claim is checked as a qcheck property against a
   naive model: a full-history list of observations, filtered to the
   same slot-quantized window the ring covers, must agree with the ring
   on every statistic — counts and rates exactly, quantiles through the
   same bucket arithmetic. The ring then only differs from the model in
   capacity (it forgets what is older than its slots), never in value.

   The clock-skew tests pin the documented safety property: a skewed
   clock (composed at the call site, as the server composes
   [Pc_fault.Fault.clock_skew_s]) can shift which slots a window covers
   but never yields a negative count, rate, or span. *)

module W = Pc_obs.Window
module Registry = Pc_obs.Registry
module Fault = Pc_fault.Fault

let slot_s = 0.25
let n_slots = 256

type obs = {
  dt : float;  (* seconds after the base time *)
  lat : float;  (* latency, ns *)
  err : bool;
  deg : bool;
  cache : int;  (* 0 hit, 1 miss, 2 uncached *)
}

let cache_of = function
  | 0 -> W.Hit
  | 1 -> W.Miss
  | _ -> W.Uncached

(* The model mirrors the ring's quantization: reference epoch from
   [now], window = the [w] complete slots before it. *)
let naive_stats obs ~t0 ~now ~window_s =
  let epoch t = int_of_float (Float.max 0. t /. slot_s) in
  let e_now = epoch now in
  let w =
    max 1 (min (n_slots - 1) (int_of_float (Float.round (window_s /. slot_s))))
  in
  let inside o =
    let e = epoch (t0 +. o.dt) in
    e_now - w <= e && e <= e_now - 1
  in
  let sel = List.filter inside obs in
  let count f = List.length (List.filter f sel) in
  let n = List.length sel in
  let buckets = Array.make Registry.Histogram.n_buckets 0 in
  List.iter
    (fun o ->
      let b = Registry.Histogram.bucket_of_ns o.lat in
      buckets.(b) <- buckets.(b) + 1)
    sel;
  let span = float_of_int w *. slot_s in
  let frac num den =
    if den <= 0 then 0. else float_of_int num /. float_of_int den
  in
  let hits = count (fun o -> o.cache = 0) in
  let misses = count (fun o -> o.cache = 1) in
  ( n,
    float_of_int n /. span,
    frac (count (fun o -> o.err)) n,
    frac (count (fun o -> o.deg)) n,
    frac hits (hits + misses),
    Registry.Histogram.percentile_of_counts buckets 50.,
    Registry.Histogram.percentile_of_counts buckets 99.,
    span )

let obs_gen =
  QCheck.Gen.(
    map5
      (fun dt lat err deg cache -> { dt; lat; err; deg; cache })
      (float_range 0. 30.) (float_range 1. 1e9) bool bool (int_range 0 2))

let window_matches_naive_prop =
  QCheck.Test.make ~name:"window agrees with naive full-history model"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (1 -- 120) obs_gen) (float_range 0.5 70.)))
    (fun (obs, window_s) ->
      let t0 = 1000. in
      let now = t0 +. 32. in
      let w = W.create ~slot_s ~slots:n_slots () in
      List.iter
        (fun o ->
          W.observe ~now:(t0 +. o.dt) w ~latency_ns:o.lat ~error:o.err
            ~degraded:o.deg ~cache:(cache_of o.cache))
        obs;
      let s = W.snapshot ~now w ~window_s in
      let n, qps, er, df, chr, p50, p99, span =
        naive_stats obs ~t0 ~now ~window_s
      in
      let feq a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b) in
      s.W.n = n && feq s.W.qps qps && feq s.W.error_rate er
      && feq s.W.degraded_fraction df
      && feq s.W.cache_hit_rate chr
      && feq s.W.p50_ns p50 && feq s.W.p99_ns p99
      && feq s.W.window_s span)

(* The window and the registry histogram read quantiles through one
   function: the same latencies, recorded in one complete slot and in a
   histogram, give equal p50/p90/p99. *)
let window_quantiles_match_histogram_prop =
  QCheck.Test.make ~name:"window quantiles equal the registry histogram's"
    ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 200) (float_range 0. 1e10)))
    (fun lats ->
      let t0 = 2000. in
      let w = W.create ~slot_s ~slots:n_slots () in
      let h = Registry.Histogram.make "test.window.quantiles" in
      Registry.Histogram.clear h;
      let was = Registry.enabled () in
      Registry.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Registry.set_enabled was)
        (fun () ->
          List.iter
            (fun lat ->
              W.observe ~now:t0 w ~latency_ns:lat ~error:false ~degraded:false
                ~cache:W.Uncached;
              Registry.Histogram.observe_ns h lat)
            lats);
      let s = W.snapshot ~now:(t0 +. slot_s) w ~window_s:60. in
      let p q = Registry.Histogram.percentile_ns h q in
      s.W.n = List.length lats
      && s.W.p50_ns = p 50. && s.W.p90_ns = p 90. && s.W.p99_ns = p 99.)

let assert_non_negative label (s : W.stats) =
  let check name v =
    if not (v >= 0. && Float.is_finite v) then
      Alcotest.failf "%s: %s = %g (negative or non-finite)" label name v
  in
  Alcotest.(check bool) (label ^ ": n >= 0") true (s.W.n >= 0);
  check "qps" s.W.qps;
  check "error_rate" s.W.error_rate;
  check "degraded_fraction" s.W.degraded_fraction;
  check "cache_hit_rate" s.W.cache_hit_rate;
  check "window_s" s.W.window_s;
  check "p99_ns" s.W.p99_ns

(* Rotation under injected clock skew: observations land at skew-jumped
   times (the composition the server uses), snapshots interleave at
   skewed and unskewed times — time effectively jumps forward and
   "back". Every snapshot must stay non-negative, and a post-skew
   snapshot must still see the post-skew observations. *)
let test_clock_skew_never_negative () =
  Fault.configure
    (Fault.config ~seed:11 ~skew_s:90. [ (Fault.Clock_skew, 0.5) ]);
  Fun.protect ~finally:Fault.disable (fun () ->
      let w = W.create ~slot_s ~slots:n_slots () in
      let t0 = 5000. in
      for i = 0 to 199 do
        let now = t0 +. (0.05 *. float_of_int i) +. Fault.clock_skew_s () in
        W.observe ~now w ~latency_ns:1e6 ~error:false ~degraded:false
          ~cache:W.Uncached;
        if i mod 20 = 0 then begin
          (* skewed reading *)
          assert_non_negative "skewed"
            (W.snapshot ~now:(t0 +. Fault.clock_skew_s ()) w ~window_s:1.);
          (* unskewed reading: behind [latest] whenever skew recorded
             ahead — the reference clamps, nothing goes negative *)
          assert_non_negative "unskewed" (W.snapshot ~now:t0 w ~window_s:10.)
        end
      done;
      let s = W.snapshot ~now:(t0 +. 10. +. 90.) w ~window_s:60. in
      assert_non_negative "final" s;
      Alcotest.(check bool) "skewed observations were recorded" true (s.W.n > 0))

(* A skew jump larger than the whole ring: every new observation lands
   past the retained slots, old ones become too old to record. Nothing
   wraps onto stale epochs and rates stay clamped at zero or above. *)
let test_skew_past_ring_is_safe () =
  let w = W.create ~slot_s ~slots:n_slots () in
  let t0 = 300. in
  W.observe ~now:t0 w ~latency_ns:1e6 ~error:false ~degraded:false
    ~cache:W.Uncached;
  let jumped = t0 +. (slot_s *. float_of_int (4 * n_slots)) in
  W.observe ~now:jumped w ~latency_ns:2e6 ~error:true ~degraded:true
    ~cache:W.Miss;
  (* the pre-jump observation is now older than every retained slot *)
  W.observe ~now:t0 w ~latency_ns:3e6 ~error:false ~degraded:false
    ~cache:W.Hit;
  let s = W.snapshot ~now:(jumped +. slot_s) w ~window_s:60. in
  assert_non_negative "post-jump" s;
  Alcotest.(check int) "only the post-jump observation is visible" 1 s.W.n;
  let stale = W.snapshot ~now:t0 w ~window_s:60. in
  assert_non_negative "stale-clock snapshot" stale

let test_empty_window () =
  let w = W.create () in
  let s = W.snapshot ~now:123.4 w ~window_s:10. in
  Alcotest.(check int) "no observations" 0 s.W.n;
  assert_non_negative "empty" s;
  Alcotest.(check (float 0.)) "qps 0" 0. s.W.qps;
  Alcotest.(check (float 0.)) "p99 0" 0. s.W.p99_ns

(* Concurrent writers: the documented loss bound is (writers - 1) per
   slot rotation. All writers target one fixed timestamp (one slot, one
   rotation), so at least [total - (writers - 1)] must be visible. *)
let test_concurrent_writers_loss_bound () =
  let w = W.create ~slot_s ~slots:n_slots () in
  let writers = 8 and per = 500 in
  let t_obs = 900. in
  let threads =
    List.init writers (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to per do
              W.observe ~now:t_obs w ~latency_ns:5e5 ~error:false
                ~degraded:false ~cache:W.Hit
            done)
          ())
  in
  List.iter Thread.join threads;
  let s = W.snapshot ~now:(t_obs +. 1.) w ~window_s:60. in
  let total = writers * per in
  Alcotest.(check bool)
    (Printf.sprintf "at most %d lost (saw %d of %d)" (writers - 1) s.W.n total)
    true
    (s.W.n >= total - (writers - 1) && s.W.n <= total)

let () =
  Alcotest.run "pc_obs window"
    [
      ( "window",
        [
          QCheck_alcotest.to_alcotest window_matches_naive_prop;
          QCheck_alcotest.to_alcotest window_quantiles_match_histogram_prop;
          Alcotest.test_case "clock skew never yields negative rates" `Quick
            test_clock_skew_never_negative;
          Alcotest.test_case "skew past the ring is safe" `Quick
            test_skew_past_ring_is_safe;
          Alcotest.test_case "empty window" `Quick test_empty_window;
          Alcotest.test_case "concurrent writers loss bound" `Quick
            test_concurrent_writers_loss_bound;
        ] );
    ]
