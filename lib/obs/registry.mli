(** Named instrument registry: counters and latency histograms.

    One global registry holds every instrument; modules register theirs
    at load time ([Counter.make] / [Histogram.make] are idempotent by
    name), so the key set printed by [pcda ... --metrics] is fixed and
    pinnable in tests.

    Counters are single {!Atomic} ints and are always live — they replace
    ad-hoc statistics that were unconditional before (e.g.
    [Pc_predicate.Sat.calls]), whose public accessors remain as thin
    views over the registered instrument. Instrumentation sites keep hot
    loops clean by accumulating in locals and flushing once per solve
    with {!Counter.add}.

    Histograms are lock-free fixed-bucket log₂ histograms over
    nanoseconds (64 power-of-two buckets), cheap enough for per-solve
    latencies; {!Histogram.observe_ns} is gated on the registry
    {!enabled} flag so disabled runs pay one branch. Percentile readouts
    are bucket-resolution: the reported p50/p90/p99 falls in the bucket
    range of the order statistics bracketing the exact percentile, so it
    is within one bucket (a factor of two) of
    {!Pc_util.Stat.percentile} whenever those statistics share a bucket
    — verified by a qcheck property. *)

val enabled : unit -> bool
(** Whether histogram observation is on. Counters ignore this flag. *)

val set_enabled : bool -> unit

module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) the counter named [name]. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val clear : t -> unit
end

module Histogram : sig
  type t

  val make : string -> t
  (** Register (or look up) the histogram named [name]. *)

  val observe_ns : t -> float -> unit
  (** Record one observation in nanoseconds; no-op unless {!enabled}.
      Non-positive values land in the first bucket. *)

  val count : t -> int
  val sum_ns : t -> int

  val min_ns : t -> int
  (** Exact smallest observation (not bucket-quantized); [0] when empty. *)

  val max_ns : t -> int
  (** Exact largest observation; [0] when empty. *)

  val mean_ns : t -> float
  (** [sum_ns / count] — exact, unlike the bucketed percentiles; [0.]
      when empty. *)

  val percentile_ns : t -> float -> float
  (** [percentile_ns h p] for [p] in [0, 100]: a representative value
      from the bucket where the cumulative count crosses the
      nearest-rank percentile — i.e. the bucket of the rank-th smallest
      sample. [0.] on an empty histogram. *)

  val percentile_of_counts : int array -> float -> float
  (** The same nearest-rank readout over raw bucket counts (index [i]
      counts values in bucket [i]); {!percentile_ns} reads a histogram's
      buckets through it, and {!Window} its summed slots. *)

  val bucket_of_ns : float -> int
  (** The bucket index a value falls into — exposed so tests can check
      the one-bucket accuracy contract. *)

  val n_buckets : int
  val clear : t -> unit
  val name : t -> string
end

val counters : unit -> (string * int) list
(** All registered counters with current values, sorted by name. *)

val histograms : unit -> Histogram.t list
(** All registered histograms, sorted by name. *)

val dump_text : unit -> string
(** Human-readable dump: a [metrics:] block with one ["  name value"]
    line per counter, then a [histograms:] block with count and
    p50/p90/p99 per histogram (microseconds). Key order is sorted, so the
    key set is stable across runs. *)

val dump_json : unit -> string
(** The same data as one JSON object:
    [{"counters": {...}, "histograms": {name: {count, sum_ns, min_ns,
    max_ns, mean_ns, p50_ns, p90_ns, p99_ns}}}]. Extremes and the mean
    are exact (tracked beside the buckets); percentiles stay
    bucket-resolution. Always valid JSON (no NaN / infinity). *)
