module Fdd = Pc_predicate.Fdd
module S = Pc_lp.Simplex
module M = Pc_milp.Milp
module Q = Pc_query.Query
module Counter = Pc_obs.Registry.Counter

let c_engines = Counter.make "incr.engines"
let c_warm = Counter.make "incr.rebounds_warm"
let c_cold = Counter.make "incr.rebounds_cold"

type t = {
  n_pcs : int;
  program : Bounds.program;
  lp : S.compiled;  (** the program's rows, shared by both sides *)
  obj_hi : float array;
  obj_lo : float array option;
  lo_vec : float array;
  hi_vec : float array;
  mutable snap_hi : S.snapshot option;
  mutable snap_lo : S.snapshot option;
}

let supported (query : Q.t) =
  match query.Q.agg with Q.Count | Q.Sum _ -> true | _ -> false

let n_cells t = t.program.Bounds.cells

let create ?tighten ?budget ~fdd set (query : Q.t) =
  let n_pcs = Pc_set.size set in
  if (not (supported query)) || Fdd.n_preds fdd <> n_pcs then None
  else
    Option.map
      (fun program ->
        Counter.incr c_engines;
        let n_vars = Array.length program.Bounds.obj_hi in
        {
          n_pcs;
          program;
          lp = program.Bounds.lp;
          obj_hi = program.Bounds.obj_hi;
          obj_lo = program.Bounds.obj_lo;
          lo_vec = Array.make n_vars 0.;
          hi_vec = Array.make n_vars infinity;
          snap_hi = None;
          snap_lo = None;
        })
      (Bounds.program ?tighten ?budget ~fdd set query)

let integral_cells t (sol : S.solution) =
  let integral x = Float.abs (x -. Float.round x) <= 1e-6 *. Float.max 1. (Float.abs x) in
  Array.for_all integral (Array.sub sol.S.values 0 (n_cells t))

type side_result = Value of float * bool | Side_infeasible | Starved

let unbounded ~maximize = Value ((if maximize then infinity else neg_infinity), true)

(* A fractional LP optimum is only a dual bound: branch and bound on the
   same rows under the current boxes proves the integral optimum, as the
   full path does. *)
let solve_milp ?budget t ~maximize ~objective =
  match
    M.solve_compiled ?budget ~node_limit:Bounds.default_opts.Bounds.node_limit t.lp
      ~maximize ~objective ~bounds:(t.lo_vec, t.hi_vec)
  with
  | M.Optimal r -> Value (r.M.bound, r.M.exact)
  | M.Unbounded -> unbounded ~maximize
  | M.Infeasible -> Side_infeasible
  | M.Stopped _ -> Starved

let solve_side ?budget t ~maximize ~objective snap =
  (match snap with None -> Counter.incr c_cold | Some _ -> Counter.incr c_warm);
  let bounds = (t.lo_vec, t.hi_vec) in
  let outcome, snap' =
    match snap with
    | Some s -> S.solve_compiled_from ?budget t.lp ~snapshot:s ~maximize ~objective ~bounds
    | None -> S.solve_compiled ?budget t.lp ~maximize ~objective ~bounds
  in
  let r =
    match outcome with
    | S.Optimal sol when integral_cells t sol ->
        Value (sol.S.objective_value, true)
    | S.Optimal _ -> solve_milp ?budget t ~maximize ~objective
    | S.Unbounded -> unbounded ~maximize
    | S.Infeasible -> Side_infeasible
    | S.Stopped _ -> Starved
  in
  (r, snap')

let rebound ?budget t ~consumed =
  let p = t.program in
  if Array.length consumed <> t.n_pcs then None
  else if not (Bounds.rebox p ~consumed ~lo:t.lo_vec ~hi:t.hi_vec) then
    Some Bounds.Infeasible
  else if p.Bounds.cells = 0 then
    (* no cell overlaps the query: the missing-side aggregate is 0 *)
    Some (Bounds.Range (Range.make ~lo_exact:true ~hi_exact:true 0. 0.))
  else begin
    let hi_r, snap_hi =
      solve_side ?budget t ~maximize:true ~objective:t.obj_hi t.snap_hi
    in
    t.snap_hi <- snap_hi;
    let lo_r =
      match t.obj_lo with
      | None -> Value (0., true)
      | Some objective ->
          let r, snap_lo = solve_side ?budget t ~maximize:false ~objective t.snap_lo in
          t.snap_lo <- snap_lo;
          r
    in
    match (lo_r, hi_r) with
    | Starved, _ | _, Starved -> None
    | Side_infeasible, _ | _, Side_infeasible -> Some Bounds.Infeasible
    | Value (lo, lo_exact), Value (hi, hi_exact) ->
        Some
          (Bounds.Range
             (Range.make ~lo_exact ~hi_exact (Float.min lo hi) hi))
  end
