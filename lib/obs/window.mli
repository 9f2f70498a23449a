(** Windowed SLO monitor: lock-free sliding-window rates and latency
    quantiles for the live telemetry plane.

    A {!t} is a ring of fixed-duration time slots (default 0.25 s x 256,
    64 s of coverage); every completed request is recorded into the slot
    its timestamp falls in with one [fetch_and_add] per field — no locks,
    no allocation. A {!snapshot} over a window (1 s / 10 s / 60 s) sums
    the last [w] {e complete} slots, excluding the in-progress one, so
    rates are over a fully elapsed span and are never inflated by a
    partial slot.

    Rotation is lock-free: the first writer to reach a slot whose epoch
    is stale CASes the epoch forward and zeroes the counters. A writer
    racing into the same slot between the CAS and the zeroing can lose
    its observation; the loss is bounded by the number of concurrent
    writer threads per rotation (same contract as the flight recorder)
    and only ever {e undercounts} — a window can report a rate of zero,
    never a negative one.

    Time only moves forward: the reference epoch is the max of the
    caller's [now] and the largest epoch ever observed, so a skewed
    clock ([Pc_fault.Clock_skew] adds seconds at the call site, exactly
    as budget deadline checks see it) shifts which slots a window covers
    but can never produce a negative count, rate, or span — pinned by a
    fault-armed test. Observations older than the retained ring are
    dropped, not wrapped onto fresh slots. *)

type t

val create : ?slot_s:float -> ?slots:int -> unit -> t
(** [slot_s] is the slot duration in seconds (default 0.25), [slots]
    the ring size (default 256). Coverage is [slot_s *. slots] seconds;
    snapshots clamp their window to [slots - 1] complete slots. *)

type cache_outcome = Hit | Miss | Uncached

val observe :
  ?now:float ->
  t ->
  latency_ns:float ->
  error:bool ->
  degraded:bool ->
  cache:cache_outcome ->
  unit
(** Record one completed request. [now] defaults to
    [Pc_util.Clock.now ()]; pass it explicitly to compose with a skewed
    or simulated clock (tests, fault injection). *)

type stats = {
  window_s : float;  (** the fully-elapsed span the stats cover *)
  n : int;  (** requests completed in the window *)
  qps : float;  (** [n /. window_s]; [>= 0.] by construction *)
  error_rate : float;  (** errors / n ([0.] when [n = 0]) *)
  degraded_fraction : float;  (** degraded / n ([0.] when [n = 0]) *)
  cache_hit_rate : float;
      (** hits / (hits + misses), counting only cache-consulted
          requests; [0.] when none were *)
  p50_ns : float;  (** bucket-resolution latency quantiles, as
                       {!Registry.Histogram.percentile_ns} *)
  p90_ns : float;
  p99_ns : float;
}

val snapshot : ?now:float -> t -> window_s:float -> stats
(** Aggregate the last [window_s] seconds of complete slots. The
    effective span (after rounding to whole slots and clamping to the
    ring) is reported back in [stats.window_s]. *)
