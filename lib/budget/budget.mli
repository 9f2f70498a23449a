(** Resource budgets for the bound pipeline.

    One budget context is threaded through cell decomposition
    ({!Pc_core.Cells}), the simplex ({!Pc_lp.Simplex}), branch-and-bound
    ({!Pc_milp.Milp}) and the join bounds, so that a single deadline or
    resource cap governs an entire [bound] call. Exhausting a budget never
    makes an answer wrong — callers step down a degradation ladder of
    sound over-approximations (see DESIGN.md, "Degradation ladder &
    budgets").

    A {!spec} is an immutable description of the limits; {!start} stamps
    the deadline and produces the mutable consumption context. Budgets are
    single-shot: start a fresh one per query (or share one deliberately to
    cap a whole batch, e.g. every per-table bound of a join).

    Consumption counters are {!Atomic}, so a check-and-take is one
    indivisible step even for a budget shared between threads: a
    systhread can be preempted between reading and writing a plain
    field. (The server's connection threads each start their own budget
    today.) Deadlines are measured on the monotonic clock
    ({!Pc_util.Clock}) — wall-time NTP steps cannot fire or starve
    them. *)

type resource =
  | Deadline  (** wall-clock timeout *)
  | Cells  (** decomposition cells materialized *)
  | Sat_calls  (** satisfiability checks during decomposition *)
  | Nodes  (** branch-and-bound nodes expanded *)
  | Iterations  (** simplex pivots *)

val resource_name : resource -> string

exception Exhausted of resource
(** Raised only by {!check} (and by decomposition when the cell cap is
    hit): the checkpoints where no graceful in-place degradation exists.
    Solvers themselves never raise this — they return structured
    early-stop outcomes. *)

type spec = {
  timeout : float option;  (** wall-clock seconds, from [start] *)
  max_cells : int option;
  max_sat_calls : int option;
  max_nodes : int option;
  max_iters : int option;
}

val spec :
  ?timeout:float ->
  ?cells:int ->
  ?sat_calls:int ->
  ?nodes:int ->
  ?iters:int ->
  unit ->
  spec

val unlimited_spec : spec

type t

val start : spec -> t
(** Stamp the deadline ([timeout] seconds from now) and reset counters. *)

val unlimited : unit -> t
(** [start unlimited_spec]: counters are still tracked, nothing is ever
    exhausted. *)

(* -------- consumption (used by the solvers) -------- *)

val take_cell : t -> bool
(** Consume one unit; [false] means the cap is exhausted (the unit is not
    counted past the cap). Same contract for the other [take_*]. *)

val take_sat : t -> bool
val take_node : t -> bool
val take_iter : t -> bool

val out_of_time : t -> bool
(** Deadline passed (or the budget was already marked dead). Records
    [deadline_hit]. Cheap enough to call per node; the simplex calls it
    every few dozen pivots. *)

val is_dead : t -> bool
(** A starving resource (deadline or the global iteration pool) ran out:
    further solver calls cannot make progress, loops should stop early.
    Unlike cell/sat/node caps, which only degrade one stage, a dead
    budget starves every downstream stage. *)

val check : t -> unit
(** Raise {!Exhausted} when the budget is dead. For ladder checkpoints
    between stages, where raising (and being caught by the ladder driver)
    is the degradation mechanism. *)

val exhaust : t -> resource -> unit
(** Mark the budget dead on [resource] (used by decomposition when the
    cell cap is hit, before raising). *)

(* -------- accounting -------- *)

type usage = {
  cells : int;
  sat_calls : int;
  nodes : int;
  iters : int;
  elapsed : float;  (** wall-clock seconds since [start] *)
  deadline_hit : bool;
  dead : resource option;
}

val usage : t -> usage
(** A consistent snapshot of each counter (individually exact; the tuple
    is not a cross-counter atomic snapshot under concurrent use). *)

val snapshot : t -> (resource * int) list
(** The four countable resources with their current consumption, in a
    fixed order ([Cells]; [Sat_calls]; [Nodes]; [Iterations]) — the
    machine-readable face of {!usage} for [--metrics] reporting. Same
    consistency caveat as {!usage}. *)
