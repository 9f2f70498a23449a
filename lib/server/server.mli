(** The `pcda serve` engine: a fault-isolated, line-oriented JSON bound
    server.

    One process, one listening socket, one OS thread per connection
    (systhreads). Clients send one JSON object per line and receive one
    JSON object per line; see DESIGN.md, "Serving, admission control &
    fault injection" for the protocol grammar.

    Every dataset is served one way: its load compiles one interval
    decision diagram ({!Pc_predicate.Fdd}), which decomposes every
    request's cells, routes every appended row, and scopes every cache
    entry. Repeat [bound] requests (same dataset content, canonical
    query predicate, aggregate, and request flags) are answered
    byte-identically from a per-dataset reply cache ({!Cache}) without
    touching the solver stack. Only exact, fully-admitted replies are
    cached; re-[load]ing a dataset replaces its cache and ingestion
    evicts delta-scoped. Hit/miss rates surface as
    [cache.hits]/[cache.misses] in [--metrics].

    Robustness contract, which the chaos tests pin:

    - {b Per-request crash isolation.} A malformed line, an unknown op,
      a parse error, a query attribute the certain rows lack, or {e any}
      exception escaping a handler (code ["internal"]) produces a
      structured [{"ok":false,"error":{...}}] reply on that connection,
      counted as one error and recorded in the flight ring like any
      other request; nothing ever unwinds past the request loop, kills
      a sibling connection, or kills the process.
    - {b Per-request deadlines.} Every [bound] runs under a
      {!Pc_budget.Budget.t} started from the server's base spec, the
      request's [timeout_ms], and the admission level — monotonic-clock
      deadlines, so degradation under pressure, never a hang.
    - {b Admission control} ({!Admission}): overload maps to cheaper
      ladder rungs instead of an unbounded queue. Replies carry both
      the admission level and the answer's provenance.
    - {b Graceful drain.} SIGTERM/SIGINT (or a [shutdown] request) stop
      the accept loop; in-flight requests finish (their budgets bound
      how long that takes), idle connections close at the next poll
      slice, then trace/metrics artifacts are flushed and {!run}
      returns. A second signal does not escalate; the drain is already
      as fast as the budgets allow.
    - {b Fault injection} ({!Pc_fault.Fault}): with a schedule armed,
      injected SAT failures/stalls, simplex doubt, clock skew and torn
      client sockets must all degrade or drop a single request or
      connection, never the server.
    - {b Live telemetry} ({!Telemetry}): every request line gets a
      monotonically increasing id and produces one immutable record —
      returned by its handler beside the reply (admission verdict,
      cache outcome, the ladder's stats, warm-path flag, ingest outcome,
      error code) and completed with its latency once the reply is
      written. {!Telemetry.Sink.observe} is the only consumer: it feeds
      the always-on flight recorder, the sliding SLO windows, the
      request histograms, the registry counters and the per-instance
      totals the [stats] op reports. The [telemetry] op serves windowed
      qps / p50 / p99 / error-rate / degraded-fraction / cache-hit-rate
      (1 s / 10 s / 60 s), a Prometheus-style text exposition
      ([{"view": "prometheus"}]), and the flight dump
      ([{"view": "flight"}]); [pcda top] renders it live. When
      [policy.p99_slo_ms] is set, admission also reads the windowed
      1 s p99 and sheds to cheaper rungs as the tail blows through the
      SLO. *)

type config = {
  host : string;
  port : int;  (** [0] binds an ephemeral port; read it back with {!port} *)
  base_spec : Pc_budget.Budget.spec;  (** per-request budget before admission *)
  policy : Admission.policy;
  max_line : int;
  poll_s : float;  (** blocked-reader / accept-loop drain poll slice *)
  trace_path : string option;  (** Chrome trace written at drain *)
  metrics_path : string option;  (** metrics JSON written at drain *)
  flight_path : string option;
      (** flight-recorder JSON dump, written at drain ([reason:
          "drain"]) and whenever a reply cannot be delivered — a torn
          or closed socket at the send boundary ([reason: "crash"]),
          which always includes the failing request's record. The
          [telemetry] op's ["view": "flight"] serves the same dump on
          demand regardless of this setting. *)
  flight_capacity : int;  (** flight-recorder ring size (default 512) *)
}

val default_config : config
(** 127.0.0.1:0, unlimited base budget, admission for 64 in-flight,
    16 MiB lines, 0.1 s poll, a 512-record flight ring, no artifacts. *)

type t

val create : config -> t
(** Bind and listen (with [SO_REUSEADDR]); raises [Unix.Unix_error] on
    bind failure. Also installs the process-wide SIGPIPE ignore. *)

val port : t -> int
(** The bound port (resolves [port = 0]). *)

val load_dataset :
  t -> name:string -> constraints:string -> ?csv:string -> unit -> (int * int, string) result
(** Parse and install a dataset (constraint DSL text, optional CSV text
    for the certain partition) under [name], replacing any previous
    binding. [Ok (n_constraints, n_certain_rows)]. Also the CLI's
    preload path. *)

val run : t -> unit
(** Serve until drained. Returns after the listen socket is closed,
    every connection thread has exited, and artifacts are flushed. *)

val initiate_drain : t -> unit
(** Stop accepting and begin the drain; safe from any thread and from
    signal handlers; idempotent. *)

val draining : t -> bool

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT call {!initiate_drain}. *)
