(** Deterministic fault injection for robustness testing.

    A small set of named {e injection sites} is threaded through the
    solver stack and the bound server: each site is a point where a real
    deployment can fail (a SAT call that hangs or dies, a warm-started
    simplex whose numerics are doubtful, a skewed clock, a client socket
    torn mid-reply). Tests and the chaos harness arm a seeded schedule;
    production runs leave the subsystem disabled, in which case every
    site costs a single atomic load and a branch — no allocation, no
    randomness.

    Decisions are {e deterministic}: whether the [n]-th visit to a site
    fires depends only on [(seed, site, n)], via a splitmix64 hash. Two
    runs with the same schedule and the same per-site visit sequence
    inject identical faults, so chaos failures replay. Per-site visit
    counters are {!Atomic}, so concurrent server threads draw distinct
    decisions without locking (the interleaving, not the decision
    function, is the only nondeterminism under concurrency).

    How each site manifests, and why it stays sound:
    - [Sat_fail] raises {!Injected} out of the SAT solver; the ladder
      driver in [Pc_core.Bounds] catches it and falls to the trivial
      rung, exactly like budget exhaustion.
    - [Sat_slow] sleeps inside the SAT solver, so deadlines expire and
      budget-driven degradation takes over.
    - [Lp_doubt] makes a warm-started simplex distrust its basis and
      take the cold-solve fallback — the path real numeric doubt takes.
    - [Clock_skew] adds seconds to deadline checks ([Pc_budget]), firing
      them early; early expiry only degrades, never corrupts.
    - [Sock_tear] / [Sock_close] tear or shut down a server-side client
      socket mid-reply / before the reply, exercising the isolation of
      the server's connection threads from one another. *)

type site =
  | Sat_fail  (** SAT solver call dies *)
  | Sat_slow  (** SAT solver call stalls *)
  | Lp_doubt  (** warm-started simplex doubts its numerics *)
  | Clock_skew  (** deadline checks see a clock jumped forward *)
  | Sock_tear  (** client socket torn mid-reply (partial write) *)
  | Sock_close  (** client socket shut down before the reply *)

val site_name : site -> string

exception Injected of site
(** Raised by {!point} when the site fires. Never escapes
    [Pc_core.Bounds.bound_budgeted] (the ladder catches it) or the
    server's per-request isolation. *)

type config = {
  seed : int;
  rates : (site * float) list;  (** firing probability per site, [0, 1] *)
  slow_s : float;  (** [Sat_slow] stall, seconds *)
  skew_s : float;  (** [Clock_skew] jump, seconds *)
}

val config : ?seed:int -> ?slow_s:float -> ?skew_s:float -> (site * float) list -> config
(** Defaults: [seed = 0], [slow_s = 0.002], [skew_s = 60.]. Omitted
    sites never fire. *)

val config_of_string : string -> (config, string) result
(** Parse a CLI schedule: comma-separated [key=value] with keys [seed],
    [slow_ms], [skew_s] and one per site ([sat_fail], [sat_slow],
    [lp_doubt], [clock_skew], [sock_tear], [sock_close]) giving its
    rate. Example: ["seed=7,sat_fail=0.2,lp_doubt=0.5,slow_ms=1"]. *)

val configure : config -> unit
(** Arm the schedule and zero every visit/injection counter. *)

val disable : unit -> unit
(** Return every site to a no-op. Counters keep their totals. *)

val enabled : unit -> bool

val with_faults : config -> (unit -> 'a) -> 'a
(** [configure], run, then [disable] (also on raise). Not reentrant. *)

(* -------- sites (called by the instrumented subsystems) -------- *)

val fire : site -> bool
(** Visit the site: [false] when disabled, otherwise the deterministic
    decision for this visit. Fired visits are counted. *)

val point : site -> unit
(** [if fire site then raise (Injected site)]. *)

val slow_point : unit -> unit
(** Visit [Sat_slow]; sleep [slow_s] when it fires. *)

val clock_skew_s : unit -> float
(** Visit [Clock_skew]; the configured jump when it fires, else [0.]. *)

(* -------- accounting -------- *)

val injected : site -> int
(** Fired visits at this site since the last {!configure}. *)

val total_injected : unit -> int
