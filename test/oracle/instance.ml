open Pc_core
module I = Pc_interval.Interval
module Box = Pc_predicate.Box
module Sat = Pc_predicate.Sat
module S = Pc_lp.Simplex
module M = Pc_milp.Milp
module Q = Pc_query.Query
module Schema = Pc_data.Schema
module Value = Pc_data.Value

(* A cell prepared for row generation: its witness region (one satisfiable
   branch of the cell expression) intersected per-attribute with the
   active value constraints. *)
type gen_cell = {
  active : int list;
  num_ranges : (string * I.t) list;  (** numeric schema attrs, all of them *)
  cat_choice : (string * string) list;  (** categorical attrs, one value *)
}

let fresh_string excluded =
  let len = List.fold_left (fun acc s -> max acc (String.length s)) 0 excluded in
  String.make (len + 1) 'z'

let prepare_cell set ~schema active =
  match Sat.solve (Cell_region.cnf set Pc_predicate.Pred.tt active) with
  | None -> None (* early-stop artifact: not actually satisfiable *)
  | Some box ->
      let value_intersection attr =
        List.fold_left
          (fun acc j ->
            Option.bind acc (fun iv ->
                I.intersect iv (Pc.value_interval (Pc_set.get set j) attr)))
          (Some (Box.num_interval box attr))
          active
      in
      let rec build_nums acc = function
        | [] -> Some (List.rev acc)
        | a :: rest -> (
            match value_intersection a with
            | Some iv -> build_nums ((a, iv) :: acc) rest
            | None -> None (* no valid value: the cell cannot host rows *))
      in
      let nums = build_nums [] (Schema.numeric_names schema) in
      Option.map
        (fun num_ranges ->
          let cat_choice =
            List.filter_map
              (fun (attr : Schema.attr) ->
                match attr.Schema.kind with
                | Schema.Numeric -> None
                | Schema.Categorical ->
                    let v =
                      match Box.cat_constraint box attr.Schema.name with
                      | Some (Box.In (v :: _)) -> v
                      | Some (Box.In []) -> "unreachable"
                      | Some (Box.Not_in excluded) -> fresh_string excluded
                      | None -> "any"
                    in
                    Some (attr.Schema.name, v))
              (Schema.attrs schema)
          in
          { active; num_ranges; cat_choice })
        nums

let coverage_constraints set cells =
  let n_pcs = Pc_set.size set in
  let cons = ref [] in
  let ok = ref true in
  for j = 0 to n_pcs - 1 do
    let pc = Pc_set.get set j in
    let covering = ref [] in
    List.iteri
      (fun i c -> if List.mem j c.active then covering := (i, 1.) :: !covering)
      cells;
    match !covering with
    | [] -> if pc.Pc.freq_lo > 0 then ok := false
    | coeffs ->
        cons := S.c_le coeffs (float_of_int pc.Pc.freq_hi) :: !cons;
        if pc.Pc.freq_lo > 0 then
          cons := S.c_ge coeffs (float_of_int pc.Pc.freq_lo) :: !cons
  done;
  if !ok then Some !cons else None

let solve_allocation ~opts ~objective cells cons =
  let problem =
    {
      S.n_vars = List.length cells;
      maximize = true;
      objective;
      constraints = cons;
      var_bounds = [];
    }
  in
  match M.solve ~node_limit:opts.Bounds.node_limit problem with
  | M.Optimal { M.incumbent = Some sol; _ } ->
      Some (Array.map (fun x -> Pc_util.Float_eps.round_to_int x) sol.S.values)
  | M.Optimal { M.incumbent = None; _ }
  | M.Infeasible | M.Unbounded
  | M.Stopped _ ->
      None

let materialize rng ~schema cells allocation ~num_value =
  let rows = ref [] in
  List.iteri
    (fun i cell ->
      for _ = 1 to allocation.(i) do
        let row =
          Array.of_list
            (List.map
               (fun (attr : Schema.attr) ->
                 match attr.Schema.kind with
                 | Schema.Numeric ->
                     let iv = List.assoc attr.Schema.name cell.num_ranges in
                     Value.Num (num_value rng cell attr.Schema.name iv)
                 | Schema.Categorical ->
                     Value.Str (List.assoc attr.Schema.name cell.cat_choice))
               (Schema.attrs schema))
        in
        rows := row :: !rows
      done)
    cells;
  Pc_data.Relation.create schema !rows

let prepared_cells ~opts set ~schema =
  let cells, _ = Cells.decompose ~strategy:opts.Bounds.strategy set in
  List.filter_map (prepare_cell set ~schema) cells

let sample ?(opts = Bounds.default_opts) rng set ~schema =
  let feasible_pred (pc : Pc.t) =
    pc.Pc.freq_lo = 0 || Pc_predicate.Pred.satisfiable pc.Pc.pred
  in
  if not (List.for_all feasible_pred (Pc_set.pcs set)) then None
  else begin
    let cells = prepared_cells ~opts set ~schema in
    match coverage_constraints set cells with
    | None -> None
    | Some cons ->
        (* randomize which vertex of the feasible region we land on *)
        let objective =
          List.mapi (fun i _ -> (i, Pc_util.Rng.uniform rng ~lo:(-1.) ~hi:1.)) cells
        in
        Option.map
          (fun allocation ->
            materialize rng ~schema cells allocation
              ~num_value:(fun rng _cell _attr iv -> I.sample rng iv))
          (solve_allocation ~opts ~objective cells cons)
  end

let witness_max ?(opts = Bounds.default_opts) set ~schema (query : Q.t) =
  (match query.Q.agg with
  | Q.Count | Q.Sum _ -> ()
  | Q.Avg _ | Q.Min _ | Q.Max _ ->
      invalid_arg "Instance.witness_max: COUNT/SUM only");
  if query.Q.where_ <> Pc_predicate.Pred.tt then
    invalid_arg "Instance.witness_max: unpredicated queries only";
  let cells = prepared_cells ~opts set ~schema in
  match coverage_constraints set cells with
  | None -> None
  | Some cons ->
      let coeff cell =
        match Q.agg_attr query with
        | None -> 1.
        | Some a ->
            let hi = I.hi_float (List.assoc a cell.num_ranges) in
            if Float.is_finite hi then hi else 1e9
      in
      let objective = List.mapi (fun i c -> (i, coeff c)) cells in
      Option.map
        (fun allocation ->
          let rng = Pc_util.Rng.create 0 in
          materialize rng ~schema cells allocation
            ~num_value:(fun rng _cell attr iv ->
              match Q.agg_attr query with
              | Some a when a = attr ->
                  (* pin the aggregated attribute at its supremum *)
                  let hi = I.hi_float iv in
                  if Float.is_finite hi && I.contains iv hi then hi
                  else I.sample rng iv
              | _ -> I.sample rng iv))
        (solve_allocation ~opts ~objective cells cons)

(* Witness-based self-audit: any concrete instance satisfying the
   constraint set is a lower bound on what the range must cover, so a
   sampled instance whose aggregate escapes the reported range is a
   soundness bug — in the bound, the sampler, or both. *)
let audit ?(opts = Bounds.default_opts) ?(samples = 5) rng set ~schema
    (query : Q.t) =
  match Bounds.bound ~opts set query with
  | Bounds.Infeasible ->
      (* infeasibility must mean: no instance exists at all *)
      (match sample ~opts rng set ~schema with
      | None -> Ok ()
      | Some _ -> Error "reported Infeasible but a satisfying instance exists")
  | Bounds.Empty | Bounds.Range _ as answer ->
      let check i =
        match sample ~opts rng set ~schema with
        | None -> Error (Printf.sprintf "sample %d: set became unsatisfiable" i)
        | Some rel -> (
            match (Q.eval rel query, answer) with
            | None, _ -> Ok () (* empty selection: consistent with any range *)
            | Some v, Bounds.Range r ->
                if Range.contains r v then Ok ()
                else
                  Error
                    (Printf.sprintf
                       "sample %d: aggregate %g escapes reported range %s" i v
                       (Format.asprintf "%a" Range.pp r))
            | Some v, _ ->
                Error
                  (Printf.sprintf
                     "sample %d: aggregate %g exists but range is Empty" i v))
      in
      let rec go i =
        if i > samples then Ok ()
        else match check i with Ok () -> go (i + 1) | Error _ as e -> e
      in
      go 1
