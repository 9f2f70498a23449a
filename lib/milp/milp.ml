module S = Pc_lp.Simplex
module F = Pc_util.Float_eps
module B = Pc_budget.Budget
module Counter = Pc_obs.Registry.Counter
module Trace = Pc_obs.Trace

let c_solves = Counter.make "milp.solves"
let c_nodes = Counter.make "milp.nodes"
let c_incumbents = Counter.make "milp.incumbent_updates"
let h_node = Pc_obs.Registry.Histogram.make "milp.node.ns"

type result = {
  bound : float;
  incumbent : S.solution option;
  exact : bool;
  truncated : bool;
  nodes : int;
}

type outcome = Optimal of result | Infeasible | Unbounded | Stopped of S.stop

let int_tol = 1e-6

(* A node is a box of variable bounds (the branching decisions on the path
   from the root, folded into per-variable [lo, hi]) plus the parent's
   final basis snapshot, which warm-starts the children: branching adds no
   constraint rows, so every node's LP has the root's shape. *)
type node = {
  lo : float array;
  hi : float array;
  snap : S.snapshot;
  relax : S.solution;
}

let most_fractional integrality values =
  let best = ref (-1) and best_frac = ref int_tol in
  Array.iteri
    (fun j v ->
      if integrality j then begin
        let frac = Float.abs (v -. Float.round v) in
        if frac > !best_frac then begin
          best := j;
          best_frac := frac
        end
      end)
    values;
  if !best = -1 then None else Some !best

let solve_run ?budget ~node_limit ~integrality ~warm lp ~maximize ~objective
    ~bounds:(lo, hi) =
  let sign = if maximize then 1. else -1. in
  let inc_updates = ref 0 in
  let total_nodes = ref 0 in
  let flush outcome =
    Counter.incr c_solves;
    Counter.add c_nodes !total_nodes;
    Counter.add c_incumbents !inc_updates;
    outcome
  in
  (* Internally treat everything as maximization of sign * objective by
     comparing signed values. *)
  let better a b = sign *. a > sign *. b in
  let root_lo = Array.map (Float.max 0.) lo and root_hi = Array.copy hi in
  (* Every node solves the root's compiled rows; only the boxes change. *)
  let solve_child snap lo hi =
    if warm then
      S.solve_compiled_from ?budget lp ~snapshot:snap ~maximize ~objective
        ~bounds:(lo, hi)
    else S.solve_compiled ?budget lp ~maximize ~objective ~bounds:(lo, hi)
  in
  match S.solve_compiled ?budget lp ~maximize ~objective ~bounds:(root_lo, root_hi) with
  | S.Infeasible, _ -> flush Infeasible
  | S.Unbounded, _ -> flush Unbounded
  | S.Stopped stop, _ -> flush (Stopped stop)
  | S.Optimal _, None -> assert false (* Optimal always carries a snapshot *)
  | S.Optimal root, Some root_snap ->
      let open_nodes : node Pc_util.Heap.t = Pc_util.Heap.create () in
      Pc_util.Heap.push open_nodes (sign *. root.S.objective_value)
        { lo = root_lo; hi = root_hi; snap = root_snap; relax = root };
      let incumbent = ref None in
      let incumbent_val = ref neg_infinity (* signed value *) in
      let nodes = total_nodes in
      let stopped_early = ref false in
      let continue_ = ref true in
      let budget_starved () =
        match budget with
        | None -> false
        | Some b -> B.is_dead b || B.out_of_time b
      in
      let take_budget_node () =
        match budget with None -> true | Some b -> B.take_node b
      in
      let observe = Pc_obs.Registry.enabled () in
      while !continue_ do
        match Pc_util.Heap.pop open_nodes with
        | None -> continue_ := false
        | Some (signed_bound, node) ->
            if signed_bound <= !incumbent_val +. int_tol then
              (* Best-first: every remaining node is no better. *)
              continue_ := false
            else if
              !nodes >= node_limit || budget_starved ()
              || not (take_budget_node ())
            then begin
              stopped_early := true;
              (* put it back so the dual bound accounts for it *)
              Pc_util.Heap.push open_nodes signed_bound node;
              continue_ := false
            end
            else begin
              incr nodes;
              let t0 = if observe then Pc_util.Clock.now_ns () else 0L in
              (match most_fractional integrality node.relax.S.values with
              | None ->
                  (* Integral: candidate incumbent. *)
                  if better node.relax.S.objective_value (sign *. !incumbent_val)
                  then begin
                    incumbent := Some node.relax;
                    incumbent_val := sign *. node.relax.S.objective_value;
                    incr inc_updates;
                    (* zero-length marker span: shows incumbent arrival
                       times on the trace timeline *)
                    if Trace.enabled () then
                      Trace.with_span ~name:"milp.incumbent"
                        ~attrs:
                          [
                            ( "objective",
                              Printf.sprintf "%g"
                                node.relax.S.objective_value );
                          ]
                        (fun () -> ())
                  end
              | Some j ->
                  let v = node.relax.S.values.(j) in
                  let fl = Float.floor v in
                  (* Branching is pure bound tightening: x_j <= fl on one
                     side, x_j >= fl + 1 on the other. *)
                  List.iter
                    (fun up ->
                      let lo = Array.copy node.lo and hi = Array.copy node.hi in
                      if up then lo.(j) <- Float.max lo.(j) (fl +. 1.)
                      else hi.(j) <- Float.min hi.(j) fl;
                      if lo.(j) > hi.(j) then () (* empty box: no child LP *)
                      else
                        match solve_child node.snap lo hi with
                        | S.Infeasible, _ -> ()
                        | (S.Unbounded | S.Stopped _), _ ->
                            (* Unbounded cannot happen if the root is
                               bounded; a Stopped child gives no bound of
                               its own. Either way, re-cover the subtree at
                               the parent's (sound) bound and truncate the
                               search — repeatedly re-solving a starved or
                               pathological child would loop. *)
                            Pc_util.Heap.push open_nodes signed_bound
                              { lo; hi; snap = node.snap; relax = node.relax };
                            stopped_early := true;
                            continue_ := false
                        | S.Optimal sol, Some snap ->
                            let sb = sign *. sol.S.objective_value in
                            if sb > !incumbent_val +. int_tol then
                              Pc_util.Heap.push open_nodes sb
                                { lo; hi; snap; relax = sol }
                        | S.Optimal _, None -> assert false)
                    [ false; true ]);
              if observe then
                Pc_obs.Registry.Histogram.observe_ns h_node
                  (Int64.to_float
                     (Int64.sub (Pc_util.Clock.now_ns ()) t0))
            end
      done;
      let open_bound =
        match Pc_util.Heap.peek_priority open_nodes with
        | Some p when !stopped_early -> Some p
        | _ -> None
      in
      let signed_final =
        match open_bound with
        | Some p -> Float.max p !incumbent_val
        | None -> !incumbent_val
      in
      if !incumbent = None && open_bound = None then
        (* No integral solution exists (e.g. constraints force a
           fractional-only region). *)
        flush Infeasible
      else begin
        let bound =
          if signed_final = neg_infinity then nan else sign *. signed_final
        in
        let exact =
          match (!incumbent, open_bound) with
          | Some inc, None ->
              F.approx_eq ~eps:1e-6 inc.S.objective_value bound
          | Some _, Some _ | None, _ -> false
        in
        flush
          (Optimal
             {
               bound;
               incumbent = !incumbent;
               exact;
               truncated = !stopped_early;
               nodes = !nodes;
             })
      end

(* Relative optimality gap at exit, for the trace attribute. *)
let gap_string r =
  match r.incumbent with
  | Some inc when Float.is_finite r.bound ->
      let g =
        Float.abs (r.bound -. inc.S.objective_value)
        /. Float.max 1. (Float.abs r.bound)
      in
      Printf.sprintf "%.3g" g
  | _ -> "inf"

let solve_compiled ?budget ?(node_limit = 10_000) ?(integrality = fun _ -> true)
    ?(warm = true) lp ~maximize ~objective ~bounds =
  (* the branch keeps the disabled path closure-free *)
  if Trace.enabled () then
    Trace.with_span ~name:"milp.solve" (fun () ->
        let r =
          solve_run ?budget ~node_limit ~integrality ~warm lp ~maximize ~objective
            ~bounds
        in
        (match r with
        | Optimal res ->
            Trace.add_attr "nodes" (string_of_int res.nodes);
            Trace.add_attr "gap" (gap_string res)
        | Infeasible -> Trace.add_attr "outcome" "infeasible"
        | Unbounded -> Trace.add_attr "outcome" "unbounded"
        | Stopped _ -> Trace.add_attr "outcome" "stopped");
        r)
  else solve_run ?budget ~node_limit ~integrality ~warm lp ~maximize ~objective ~bounds

let solve ?budget ?node_limit ?integrality ?warm problem =
  let lp = S.compile problem in
  solve_compiled ?budget ?node_limit ?integrality ?warm lp
    ~maximize:problem.S.maximize ~objective:(S.objective_vector problem)
    ~bounds:(S.bounds_of_problem problem)
