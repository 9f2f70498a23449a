(** Structured span tracing for the bound pipeline.

    A span is a named, timed region of execution with string attributes.
    Spans nest: {!with_span} pushes onto one stack, so the trace
    of a [bound] call shows decompose inside a ladder rung inside the
    top-level span, with SAT / LP / MILP solves below.

    Recording is gated on one global flag: when disabled (the default),
    {!with_span} is a single atomic load and a branch around the wrapped
    function — no allocation, no clock read — so instrumented hot paths
    cost nothing in production. Enable with {!set_enabled} (the CLI's
    [--trace] does this).

    The process keeps one recording buffer. Every bound runs on the
    calling thread, so a CLI or bench trace is one nested stack; the
    server's connection threads share the buffer without a lock, and the
    Chrome export puts every span on [tid] 0.

    Timestamps come from {!Pc_util.Clock} (monotonic), so durations are
    never negative and NTP steps cannot corrupt a trace. *)

type span = {
  name : string;
  attrs : (string * string) list;
  t0_ns : int64;  (** start, monotonic clock *)
  dur_ns : int64;  (** duration, [>= 0] *)
  depth : int;  (** nesting depth at open time *)
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all recorded spans and re-stamp the
    export epoch. Open spans are discarded too: call between runs, not
    inside one. *)

val with_span : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** [with_span ~name f] runs [f] inside a span. The span is closed (and
    recorded) even when [f] raises. When tracing is disabled this is
    exactly [f ()]. *)

val add_attr : string -> string -> unit
(** Attach an attribute to the innermost open span
    (e.g. the outcome of a ladder rung, known only at the end). No-op when
    tracing is disabled or no span is open. *)

val spans : unit -> span list
(** Completed spans, sorted by start time. *)

val totals_by_name : unit -> (string * int * int64) list
(** Per-name aggregate [(name, count, total_ns)], sorted by total
    descending — the data behind {!summary} and the bench's per-phase
    totals. *)

val to_chrome_json : unit -> string
(** The trace in Chrome [trace_event] JSON array format (["ph":"X"]
    complete events, microsecond timestamps): load in [chrome://tracing]
    or Perfetto. Always valid JSON, even with zero spans. *)

val summary : unit -> string
(** Human-readable flame-style summary: one line per span name with call
    count and total time, widest first. *)
