(* Sliding-window SLO stats over a ring of per-slot atomic counters.

   Each slot aggregates the requests whose completion time fell in one
   [slot_s]-second span; the slot's absolute index (epoch) disambiguates
   ring reuse. Writers rotate slots lazily: whoever first lands on a slot
   holding an older epoch CASes it forward and zeroes the counters. The
   CAS-then-zero order means a concurrent writer that observed the fresh
   epoch before the zeroing finished can lose its increments — at most
   (writers - 1) observations per rotation, and always an undercount. *)

let n_buckets = Registry.Histogram.n_buckets

type t = {
  slot_s : float;
  n_slots : int;
  epochs : int Atomic.t array;  (* absolute slot index; -1 = never used *)
  n : int Atomic.t array;
  errors : int Atomic.t array;
  degraded : int Atomic.t array;
  hits : int Atomic.t array;
  misses : int Atomic.t array;
  buckets : int Atomic.t array array;  (* slot -> log2 latency buckets *)
  latest : int Atomic.t;  (* max epoch ever observed: time never rewinds *)
}

let create ?(slot_s = 0.25) ?(slots = 256) () =
  let slot_s = if slot_s > 0. then slot_s else 0.25 in
  let n_slots = max 2 slots in
  let arr () = Array.init n_slots (fun _ -> Atomic.make 0) in
  {
    slot_s;
    n_slots;
    epochs = Array.init n_slots (fun _ -> Atomic.make (-1));
    n = arr ();
    errors = arr ();
    degraded = arr ();
    hits = arr ();
    misses = arr ();
    buckets = Array.init n_slots (fun _ -> Array.init n_buckets (fun _ -> Atomic.make 0));
    latest = Atomic.make 0;
  }

type cache_outcome = Hit | Miss | Uncached

let epoch_of t now = int_of_float (Float.max 0. now /. t.slot_s)

let rec raise_latest t e =
  let l = Atomic.get t.latest in
  if e > l && not (Atomic.compare_and_set t.latest l e) then raise_latest t e

let bump a i v = if v <> 0 then ignore (Atomic.fetch_and_add a.(i) v)

(* Rotate slot [i] to epoch [e]; [false] when the slot has already been
   recycled for a newer epoch (the observation is too old to record). *)
let rec claim t i e =
  let cur = Atomic.get t.epochs.(i) in
  if cur = e then true
  else if cur > e then false
  else if Atomic.compare_and_set t.epochs.(i) cur e then begin
    Atomic.set t.n.(i) 0;
    Atomic.set t.errors.(i) 0;
    Atomic.set t.degraded.(i) 0;
    Atomic.set t.hits.(i) 0;
    Atomic.set t.misses.(i) 0;
    Array.iter (fun b -> Atomic.set b 0) t.buckets.(i);
    true
  end
  else claim t i e

let observe ?now t ~latency_ns ~error ~degraded ~cache =
  let now = match now with Some x -> x | None -> Pc_util.Clock.now () in
  let e = epoch_of t now in
  raise_latest t e;
  (* an observation that predates every retained slot is dropped rather
     than wrapped onto a fresh epoch *)
  if e > Atomic.get t.latest - t.n_slots then begin
    let i = e mod t.n_slots in
    if claim t i e then begin
      bump t.n i 1;
      bump t.errors i (if error then 1 else 0);
      bump t.degraded i (if degraded then 1 else 0);
      (match cache with
      | Hit -> bump t.hits i 1
      | Miss -> bump t.misses i 1
      | Uncached -> ());
      bump t.buckets.(i) (Registry.Histogram.bucket_of_ns latency_ns) 1
    end
  end

type stats = {
  window_s : float;
  n : int;
  qps : float;
  error_rate : float;
  degraded_fraction : float;
  cache_hit_rate : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
}

let snapshot ?now t ~window_s =
  let now = match now with Some x -> x | None -> Pc_util.Clock.now () in
  (* reference epoch: never behind the data — under clock skew the
     window shifts, the arithmetic stays non-negative *)
  let e_now = max (epoch_of t now) (Atomic.get t.latest) in
  let w =
    max 1
      (min (t.n_slots - 1)
         (int_of_float (Float.round (window_s /. t.slot_s))))
  in
  let n = ref 0
  and errors = ref 0
  and degraded = ref 0
  and hits = ref 0
  and misses = ref 0 in
  let buckets = Array.make n_buckets 0 in
  for e = e_now - w to e_now - 1 do
    if e >= 0 then begin
      let i = e mod t.n_slots in
      (* only slots still holding this epoch count; a recycled or stale
         slot contributes nothing *)
      if Atomic.get t.epochs.(i) = e then begin
        n := !n + Atomic.get t.n.(i);
        errors := !errors + Atomic.get t.errors.(i);
        degraded := !degraded + Atomic.get t.degraded.(i);
        hits := !hits + Atomic.get t.hits.(i);
        misses := !misses + Atomic.get t.misses.(i);
        Array.iteri
          (fun b cell -> buckets.(b) <- buckets.(b) + Atomic.get cell)
          t.buckets.(i)
      end
    end
  done;
  let span = float_of_int w *. t.slot_s in
  let frac num den = if den <= 0 then 0. else float_of_int num /. float_of_int den in
  {
    window_s = span;
    n = !n;
    qps = float_of_int !n /. span;
    error_rate = frac !errors !n;
    degraded_fraction = frac !degraded !n;
    cache_hit_rate = frac !hits (!hits + !misses);
    p50_ns = Registry.Histogram.percentile_of_counts buckets 50.;
    p90_ns = Registry.Histogram.percentile_of_counts buckets 90.;
    p99_ns = Registry.Histogram.percentile_of_counts buckets 99.;
  }
