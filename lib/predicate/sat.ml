(* Counters are registered instruments (pc_obs registry), atomic so that
   solver work aggregates cleanly when several server threads decompose
   at once. The historical accessors
   below are thin views over the registered counters. *)
module Counter = Pc_obs.Registry.Counter

let call_count = Counter.make "sat.calls"
let atom_count = Counter.make "sat.atom_ops"
let calls () = Counter.get call_count
let atom_ops () = Counter.get atom_count

let reset_calls () =
  Counter.clear call_count;
  Counter.clear atom_count

type tally = { mutable searches : int; mutable ops : int }

let tally () = { searches = 0; ops = 0 }

let flush t =
  Counter.add call_count t.searches;
  Counter.add atom_count t.ops

(* Clause ordering heuristic: decide short clauses first — unit clauses
   are deterministic and prune the box before any branching happens.
   Lengths are precomputed (decorate-sort-undecorate) so the comparator
   is O(1) instead of rescanning each clause per comparison. *)
let order_clauses = function
  | ([] | [ _ ]) as cnf -> cnf
  | cnf ->
      List.map (fun clause -> (List.length clause, clause)) cnf
      |> List.stable_sort (fun (la, _) (lb, _) -> Int.compare la lb)
      |> List.map snd

let solve_search tally box cnf =
  let ops = ref 0 in
  let rec go box = function
    | [] -> Some box
    | [] :: _ -> None (* empty clause: unsatisfiable *)
    | clause :: rest ->
        List.find_map
          (fun atom ->
            incr ops;
            match Box.add_atom box atom with
            | None -> None
            | Some box' -> go box' rest)
          clause
  in
  let result = go box (order_clauses cnf) in
  (match tally with
  | None -> Counter.add atom_count !ops
  | Some t -> t.ops <- t.ops + !ops);
  result

let solve ?tally ?(box = Box.top) cnf =
  (* Fault injection: a real deployment's SAT call can die or stall.
     [Sat_fail] raises out of here and is absorbed by the degradation
     ladder; [Sat_slow] sleeps so deadlines fire. Disabled (the default)
     this is one atomic load. *)
  if Pc_fault.Fault.enabled () then begin
    Pc_fault.Fault.point Pc_fault.Fault.Sat_fail;
    Pc_fault.Fault.slow_point ()
  end;
  (match tally with
  | None -> Counter.incr call_count
  | Some t -> t.searches <- t.searches + 1);
  (* the branch keeps the disabled path closure-free *)
  if Pc_obs.Trace.enabled () then
    Pc_obs.Trace.with_span ~name:"sat.solve" (fun () -> solve_search tally box cnf)
  else solve_search tally box cnf

let check ?tally ?box cnf = Option.is_some (solve ?tally ?box cnf)
