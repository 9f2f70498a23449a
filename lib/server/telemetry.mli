(** Request-scoped telemetry: the per-request record, the one sink that
    consumes it, the flight recorder, and the Prometheus-style text
    exposition.

    Every request line the server answers produces exactly one
    immutable {!record}: the handler returns it beside its reply with
    the facts it learned (dataset digest, admission level, cache
    outcome, the ladder's stats, the warm-path flag, the ingest outcome,
    the error code), and the connection loop adds the id, completion
    time and latency measured around the reply write. {!Sink.observe} is
    then the only code that turns a record into telemetry: the {!Flight}
    ring, the windowed SLO monitor ([Pc_obs.Window]), the
    [server.request_ns] / [ingest.ns] histograms, the registry counters
    and the per-instance totals the [stats] and [telemetry] ops read.

    See DESIGN.md, "Live telemetry & flight recorder". *)

type ingest =
  | Appended of int  (** a published append batch and its row count *)
  | Retracted  (** a published retraction *)

type record = {
  id : int;  (** server-wide monotonically increasing request id *)
  t_s : float;  (** completion wall-clock time (unix seconds) *)
  op : string;  (** the request's ["op"] field ([""] when absent) *)
  dataset : string;  (** dataset content digest ([""] until resolved) *)
  admission : Admission.level option;  (** [None] when not admitted *)
  cache : Pc_obs.Window.cache_outcome;
  stats : Pc_core.Bounds.stats option;
      (** the degradation ladder's stats, for a computed [bound] *)
  incremental : bool;  (** answered by the warm incremental engine *)
  ingest : ingest option;
  latency_ns : int;  (** request line read to reply written *)
  error : string option;
      (** error code when the reply was an error, or ["send-failed"]
          when a reply could not be delivered *)
}

val request : id:int -> record
(** The record of a request that has learned nothing yet: no op, no
    dataset, uncached, no stats, zero latency, no error. *)

val degraded : record -> bool
(** The request computed an answer below the [Exact] rung. *)

val record_json : record -> Pc_obs.Json.value

(** Always-on bounded ring of the last [capacity] request records.

    Writers claim distinct slots with one [fetch_and_add], so concurrent
    pushes never lose records — a record only leaves the ring when
    [capacity] newer ones have overwritten it. A {!records} read racing
    concurrent writers can observe a slot mid-overwrite as the {e newer}
    record; at most [writers] of the returned records may be newer than
    the read's start, and none are torn (slots hold immutable records
    behind one atomic). *)
module Flight : sig
  type t

  val create : capacity:int -> t
  (** [capacity] is clamped to at least 1. *)

  val capacity : t -> int

  val pushed : t -> int
  (** Total records ever pushed (≥ the number retained). *)

  val push : t -> record -> unit

  val records : t -> record list
  (** Retained records, oldest first. *)

  val to_json : t -> reason:string -> Pc_obs.Json.value
  (** The dump artifact:
      [{"schema": "pcda-flight/1", "reason": ..., "capacity": ...,
        "pushed": ..., "records": [...]}] — always valid JSON. *)
end

(** The one consumer of request records, one per server instance. *)
module Sink : sig
  type t

  val create : flight_capacity:int -> t

  val next_id : t -> int
  (** Claim the next request id: 1, 2, … per instance. *)

  val observe : t -> record -> unit
  (** Push the record into the flight ring and the SLO window, feed the
      [server.request_ns] histogram (and [ingest.ns] for [append] /
      [retract] requests, at the same boundary), and bump the registry
      counters and per-instance totals the record implies. *)

  val flight : t -> Flight.t
  val window : t -> Pc_obs.Window.t

  val last_id : t -> int
  (** The last request id claimed: the instance's [requests] total. *)

  val totals_json :
    t ->
    live:(string * Pc_obs.Json.value) list ->
    ingest:bool ->
    (string * Pc_obs.Json.value) list
  (** The per-instance totals as the [stats] and [telemetry] replies
      print them: [requests], [errors] (error replies and failed
      sends) and [degraded], then the caller's [live] gauges, then
      [cache] ([hits] / [misses]) and [admission] (admitted requests per
      level name), and with [ingest] the [ingest] block ([batches],
      [rows], [retracts], [incremental_bounds]). *)
end

val prometheus :
  windows:(string * Pc_obs.Window.stats) list ->
  gauges:(string * float) list ->
  string
(** Prometheus text exposition ([text/plain; version=0.0.4] shape) of
    the whole telemetry plane: every registry counter as
    [pcda_<name> v] (dots become underscores), every registry histogram
    as [_count] / [_sum] plus [quantile]-labelled gauges, each [windows]
    entry (label, snapshot) as [pcda_window_*{window="label"}] gauges,
    and each extra gauge verbatim under [pcda_<name>]. [# TYPE] /
    [# HELP] comment lines precede each metric family. Finite numbers
    print through {!Pc_util.Float_text.to_string}; non-finite ones as
    the format spells them, [NaN], [+Inf] and [-Inf]. *)
