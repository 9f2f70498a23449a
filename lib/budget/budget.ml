type resource = Deadline | Cells | Sat_calls | Nodes | Iterations

(* Cold-path observability: exhaustion events are rare, so counting them
   directly at the mark site costs nothing on healthy runs. *)
let c_exhaustions = Pc_obs.Registry.Counter.make "budget.exhaustions"
let c_deadline_hits = Pc_obs.Registry.Counter.make "budget.deadline_hits"

let resource_name = function
  | Deadline -> "deadline"
  | Cells -> "cells"
  | Sat_calls -> "sat-calls"
  | Nodes -> "nodes"
  | Iterations -> "iterations"

exception Exhausted of resource

type spec = {
  timeout : float option;
  max_cells : int option;
  max_sat_calls : int option;
  max_nodes : int option;
  max_iters : int option;
}

let spec ?timeout ?cells ?sat_calls ?nodes ?iters () =
  {
    timeout;
    max_cells = cells;
    max_sat_calls = sat_calls;
    max_nodes = nodes;
    max_iters = iters;
  }

let unlimited_spec = spec ()

(* Counters are atomic so a check-and-take stays one step even if a
   budget is shared between threads: a cap can never be breached by two
   threads racing past the check (see budget.mli). *)
type t = {
  spec : spec;
  deadline : float option;  (* absolute monotonic seconds, Pc_util.Clock *)
  t0 : float;
  cells : int Atomic.t;
  sat_calls : int Atomic.t;
  nodes : int Atomic.t;
  iters : int Atomic.t;
  deadline_hit : bool Atomic.t;
  dead : resource option Atomic.t;
}

let now () = Pc_util.Clock.now ()

let start spec =
  let t0 = now () in
  {
    spec;
    deadline = Option.map (fun s -> t0 +. Float.max 0. s) spec.timeout;
    t0;
    cells = Atomic.make 0;
    sat_calls = Atomic.make 0;
    nodes = Atomic.make 0;
    iters = Atomic.make 0;
    deadline_hit = Atomic.make false;
    dead = Atomic.make None;
  }

let unlimited () = start unlimited_spec

(* First writer wins: once dead on some resource, stay dead on it. *)
let mark_dead t resource =
  if Atomic.compare_and_set t.dead None (Some resource) then begin
    Pc_obs.Registry.Counter.incr c_exhaustions;
    if resource = Deadline then
      Pc_obs.Registry.Counter.incr c_deadline_hits
  end

(* A non-positive timeout means "already expired": callers crushing the
   budget to zero must see immediate exhaustion even within the clock's
   resolution. *)
let out_of_time t =
  match Atomic.get t.dead with
  | Some _ -> true
  | None -> (
      match t.deadline with
      | None -> false
      | Some d ->
          (* Clock-skew fault injection: deadline checks may see a clock
             jumped forward. Firing a deadline early only degrades the
             answer down the ladder — never corrupts it — which is
             exactly the property the chaos tests pin. *)
          let skew =
            if Pc_fault.Fault.enabled () then Pc_fault.Fault.clock_skew_s ()
            else 0.
          in
          if now () +. skew >= d then begin
            Atomic.set t.deadline_hit true;
            mark_dead t Deadline;
            true
          end
          else false)

(* Reserve one unit with fetch-and-add, handing it back on overshoot so
   the counter converges to the cap instead of drifting past it. *)
let take counter limit t =
  match Atomic.get t.dead with
  | Some _ -> false
  | None -> (
      match limit with
      | None ->
          Atomic.incr counter;
          true
      | Some cap ->
          if Atomic.fetch_and_add counter 1 < cap then true
          else begin
            Atomic.decr counter;
            false
          end)

let take_cell t = take t.cells t.spec.max_cells t
let take_sat t = take t.sat_calls t.spec.max_sat_calls t
let take_node t = take t.nodes t.spec.max_nodes t

let take_iter t =
  if take t.iters t.spec.max_iters t then true
  else begin
    (* the global pivot pool starves every downstream solve *)
    mark_dead t Iterations;
    false
  end

let is_dead t = Atomic.get t.dead <> None

let exhaust t resource = mark_dead t resource

let check t =
  ignore (out_of_time t);
  match Atomic.get t.dead with Some r -> raise (Exhausted r) | None -> ()

type usage = {
  cells : int;
  sat_calls : int;
  nodes : int;
  iters : int;
  elapsed : float;
  deadline_hit : bool;
  dead : resource option;
}

let usage (t : t) =
  {
    cells = Atomic.get t.cells;
    sat_calls = Atomic.get t.sat_calls;
    nodes = Atomic.get t.nodes;
    iters = Atomic.get t.iters;
    elapsed = now () -. t.t0;
    deadline_hit = Atomic.get t.deadline_hit;
    dead = Atomic.get t.dead;
  }

let snapshot (t : t) =
  [
    (Cells, Atomic.get t.cells);
    (Sat_calls, Atomic.get t.sat_calls);
    (Nodes, Atomic.get t.nodes);
    (Iterations, Atomic.get t.iters);
  ]
