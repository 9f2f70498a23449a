(* The dense bounded-variable tableau simplex exactly as it stood before
   the revised-simplex rework, minus warm starts, budgets, faults, and
   observability: a pure (problem -> outcome) oracle. Kept deliberately
   independent of Simplex's internals — the two share only the public
   problem/outcome types, so agreement between them is evidence, not
   tautology. *)

module S = Pc_lp.Simplex

type vstat = Vbasic | Vlower | Vupper

let tol = 1e-7
let max_iters = 1_000_000

let canon_coeffs = function
  | ([] | [ _ ]) as c -> c
  | coeffs ->
      let sorted =
        List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) coeffs
      in
      let rec merge = function
        | (j1, v1) :: (j2, v2) :: rest when j1 = j2 ->
            merge ((j1, v1 +. v2) :: rest)
        | (j, v) :: rest -> if v = 0. then merge rest else (j, v) :: merge rest
        | [] -> []
      in
      merge sorted

let normalize (p : S.problem) =
  {
    p with
    S.objective = canon_coeffs p.S.objective;
    constraints =
      List.map
        (fun (c : S.constr) -> { c with S.coeffs = canon_coeffs c.S.coeffs })
        p.S.constraints;
  }

let validate (p : S.problem) =
  if p.S.n_vars < 0 then invalid_arg "Simplex: negative n_vars";
  let check_term (j, c) =
    if j < 0 || j >= p.S.n_vars then
      invalid_arg "Simplex: variable index out of range";
    if not (Float.is_finite c) then invalid_arg "Simplex: non-finite coefficient"
  in
  List.iter check_term p.S.objective;
  List.iter
    (fun (cn : S.constr) ->
      List.iter check_term cn.S.coeffs;
      if not (Float.is_finite cn.S.rhs) then
        invalid_arg "Simplex: non-finite rhs")
    p.S.constraints;
  List.iter
    (fun (j, l, h) ->
      if j < 0 || j >= p.S.n_vars then
        invalid_arg "Simplex: bound variable index out of range";
      if Float.is_nan l || Float.is_nan h then invalid_arg "Simplex: NaN bound")
    p.S.var_bounds

let bounds_arrays (p : S.problem) =
  let lo = Array.make p.S.n_vars 0. and hi = Array.make p.S.n_vars infinity in
  List.iter
    (fun (j, l, h) ->
      lo.(j) <- Float.max lo.(j) l;
      hi.(j) <- Float.min hi.(j) h)
    p.S.var_bounds;
  (lo, hi)

type tab = {
  m : int;
  n : int;
  nv : int;
  a : float array array;
  z : float array;
  lo : float array;
  hi : float array;
  basis : int array;
  xb : float array;
  status : vstat array;
  banned : bool array;
  mutable cols : int array;
}

let fixed t j = t.hi.(j) -. t.lo.(j) <= tol

let rebuild_cols t =
  let buf = Array.make (Stdlib.max 1 t.n) 0 in
  let k = ref 0 in
  for j = 0 to t.n - 1 do
    if (not t.banned.(j)) && not (fixed t j) then begin
      buf.(!k) <- j;
      incr k
    end
  done;
  t.cols <- Array.sub buf 0 !k

let nb_value t j =
  match t.status.(j) with
  | Vlower -> t.lo.(j)
  | Vupper -> t.hi.(j)
  | Vbasic -> assert false

let objective_of t c =
  let acc = ref 0. in
  for i = 0 to t.m - 1 do
    acc := !acc +. (c.(t.basis.(i)) *. t.xb.(i))
  done;
  for j = 0 to t.n - 1 do
    if c.(j) <> 0. then
      match t.status.(j) with
      | Vbasic -> ()
      | Vlower -> acc := !acc +. (c.(j) *. t.lo.(j))
      | Vupper -> acc := !acc +. (c.(j) *. t.hi.(j))
  done;
  !acc

let pivot_tab t ~row ~col =
  let arow = t.a.(row) in
  let piv = arow.(col) in
  let inv = 1. /. piv in
  for j = 0 to t.n - 1 do
    arow.(j) <- arow.(j) *. inv
  done;
  arow.(col) <- 1.;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let r = t.a.(i) in
      let factor = r.(col) in
      if factor <> 0. then begin
        for j = 0 to t.n - 1 do
          r.(j) <- r.(j) -. (factor *. arow.(j))
        done;
        r.(col) <- 0.
      end
    end
  done;
  let factor = t.z.(col) in
  if factor <> 0. then begin
    for j = 0 to t.n - 1 do
      t.z.(j) <- t.z.(j) -. (factor *. arow.(j))
    done;
    t.z.(col) <- 0.
  end

let set_z t c =
  for j = 0 to t.n - 1 do
    t.z.(j) <- -.c.(j)
  done;
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    let factor = t.z.(b) in
    if factor <> 0. then begin
      let r = t.a.(i) in
      for j = 0 to t.n - 1 do
        t.z.(j) <- t.z.(j) -. (factor *. r.(j))
      done;
      t.z.(b) <- 0.
    end
  done

let viol t j =
  match t.status.(j) with
  | Vlower -> -.t.z.(j)
  | Vupper -> t.z.(j)
  | Vbasic -> 0.

let entering t ~bland =
  let ncols = Array.length t.cols in
  if bland then begin
    let rec find k =
      if k >= ncols then None
      else
        let j = t.cols.(k) in
        if viol t j > tol then Some j else find (k + 1)
    in
    find 0
  end
  else begin
    let best = ref (-1) and best_v = ref tol in
    for k = 0 to ncols - 1 do
      let j = t.cols.(k) in
      let v = viol t j in
      if v > !best_v then begin
        best := j;
        best_v := v
      end
    done;
    if !best = -1 then None else Some !best
  end

exception Unbounded_exc
exception Stop_exc of S.stop_reason

let primal_step t ~col =
  let d =
    match t.status.(col) with
    | Vlower -> 1.
    | Vupper -> -1.
    | Vbasic -> assert false
  in
  let best_row = ref (-1) in
  let best_t = ref (t.hi.(col) -. t.lo.(col)) in
  let leave_at_upper = ref false in
  let consider i ratio at_upper =
    if
      ratio < !best_t -. tol
      || (Float.abs (ratio -. !best_t) <= tol
          && !best_row >= 0
          && t.basis.(i) < t.basis.(!best_row))
    then begin
      best_row := i;
      best_t := ratio;
      leave_at_upper := at_upper
    end
  in
  for i = 0 to t.m - 1 do
    let rate = -.(d *. t.a.(i).(col)) in
    if rate > tol then begin
      let head = t.hi.(t.basis.(i)) -. t.xb.(i) in
      if Float.is_finite head then consider i (Float.max 0. (head /. rate)) true
    end
    else if rate < -.tol then begin
      let head = t.xb.(i) -. t.lo.(t.basis.(i)) in
      consider i (Float.max 0. (head /. -.rate)) false
    end
  done;
  if not (Float.is_finite !best_t) then raise Unbounded_exc;
  let step = d *. !best_t in
  if !best_row = -1 then begin
    for i = 0 to t.m - 1 do
      t.xb.(i) <- t.xb.(i) -. (t.a.(i).(col) *. step)
    done;
    t.status.(col) <-
      (match t.status.(col) with
      | Vlower -> Vupper
      | Vupper -> Vlower
      | Vbasic -> assert false)
  end
  else begin
    let row = !best_row in
    let enter_val = nb_value t col +. step in
    for i = 0 to t.m - 1 do
      t.xb.(i) <- t.xb.(i) -. (t.a.(i).(col) *. step)
    done;
    let leaving = t.basis.(row) in
    t.status.(leaving) <- (if !leave_at_upper then Vupper else Vlower);
    t.status.(col) <- Vbasic;
    t.basis.(row) <- col;
    t.xb.(row) <- enter_val;
    pivot_tab t ~row ~col
  end

let optimize ~iters ~c t =
  let stall = ref 0 in
  let last_obj = ref (objective_of t c) in
  let continue_ = ref true in
  while !continue_ do
    if !iters > max_iters then raise (Stop_exc S.Iteration_limit);
    let bland = !stall > 2 * (t.m + t.n) in
    match entering t ~bland with
    | None -> continue_ := false
    | Some col ->
        primal_step t ~col;
        incr iters;
        let obj = objective_of t c in
        if obj > !last_obj +. tol then begin
          stall := 0;
          last_obj := obj
        end
        else incr stall
  done

let extract_solution t ~sign ~c2 =
  let values = Array.make t.nv 0. in
  for j = 0 to t.nv - 1 do
    match t.status.(j) with
    | Vlower -> values.(j) <- t.lo.(j)
    | Vupper -> values.(j) <- t.hi.(j)
    | Vbasic -> ()
  done;
  for i = 0 to t.m - 1 do
    if t.basis.(i) < t.nv then values.(t.basis.(i)) <- t.xb.(i)
  done;
  for j = 0 to t.nv - 1 do
    let v = values.(j) in
    let v = if Float.abs (v -. t.lo.(j)) <= tol then t.lo.(j) else v in
    let v =
      if Float.is_finite t.hi.(j) && Float.abs (v -. t.hi.(j)) <= tol then
        t.hi.(j)
      else v
    in
    values.(j) <- v
  done;
  (* the oracle checks optima, not duals: it reports none *)
  { S.objective_value = sign *. objective_of t c2; values; duals = [||]; reduced_costs = [||] }

let cold_solve (p : S.problem) =
  let cons = Array.of_list p.S.constraints in
  let m = Array.length cons in
  let nv = p.S.n_vars in
  let n_slack =
    Array.fold_left
      (fun acc (c : S.constr) ->
        match c.S.op with S.Le | S.Ge -> acc + 1 | S.Eq -> acc)
      0 cons
  in
  let n = nv + n_slack + m in
  let rows = Array.init m (fun _ -> Array.make n 0.) in
  let rhs = Array.make m 0. in
  let slack_col = Array.make m (-1) in
  let art_col = Array.make m (-1) in
  let lo = Array.make n 0. and hi = Array.make n infinity in
  let vlo, vhi = bounds_arrays p in
  Array.blit vlo 0 lo 0 nv;
  Array.blit vhi 0 hi 0 nv;
  let next_slack = ref nv in
  let art_start = nv + n_slack in
  Array.iteri
    (fun i (c : S.constr) ->
      List.iter (fun (j, v) -> rows.(i).(j) <- rows.(i).(j) +. v) c.S.coeffs;
      rhs.(i) <- c.S.rhs;
      (match c.S.op with
      | S.Le ->
          rows.(i).(!next_slack) <- 1.;
          slack_col.(i) <- !next_slack;
          incr next_slack
      | S.Ge ->
          rows.(i).(!next_slack) <- -1.;
          slack_col.(i) <- !next_slack;
          incr next_slack
      | S.Eq -> ());
      art_col.(i) <- art_start + i)
    cons;
  let domain_empty = ref false in
  for j = 0 to nv - 1 do
    if lo.(j) > hi.(j) then domain_empty := true
  done;
  if !domain_empty then (S.Infeasible, 0)
  else begin
    let art_neg = Array.make m false in
    let basis = Array.make m (-1) in
    let status = Array.make n Vlower in
    let xb = Array.make m 0. in
    for i = 0 to m - 1 do
      let resid = ref rhs.(i) in
      for j = 0 to nv - 1 do
        let aij = rows.(i).(j) in
        if aij <> 0. then resid := !resid -. (aij *. lo.(j))
      done;
      let r = !resid in
      let art_basic neg v =
        art_neg.(i) <- neg;
        basis.(i) <- art_col.(i);
        xb.(i) <- v
      in
      match cons.(i).S.op with
      | S.Le ->
          if r >= 0. then begin
            basis.(i) <- slack_col.(i);
            xb.(i) <- r
          end
          else art_basic true (-.r)
      | S.Ge ->
          if r <= 0. then begin
            basis.(i) <- slack_col.(i);
            xb.(i) <- -.r
          end
          else art_basic false r
      | S.Eq -> art_basic (r < 0.) (Float.abs r)
    done;
    for i = 0 to m - 1 do
      rows.(i).(art_col.(i)) <- (if art_neg.(i) then -1. else 1.)
    done;
    let a = rows in
    for i = 0 to m - 1 do
      if a.(i).(basis.(i)) < 0. then
        for j = 0 to n - 1 do
          a.(i).(j) <- -.a.(i).(j)
        done
    done;
    for i = 0 to m - 1 do
      status.(basis.(i)) <- Vbasic
    done;
    let banned = Array.make n false in
    for i = 0 to m - 1 do
      banned.(art_col.(i)) <- true
    done;
    let t =
      { m; n; nv; a; z = Array.make n 0.; lo; hi; basis; xb; status; banned;
        cols = [||] }
    in
    rebuild_cols t;
    let iters = ref 0 in
    let stopped reason ~best_objective =
      S.Stopped { S.reason; best_objective; iterations = !iters }
    in
    let art_sum () =
      let s = ref 0. in
      for i = 0 to m - 1 do
        if basis.(i) >= art_start then s := !s +. Float.abs xb.(i)
      done;
      !s
    in
    let need_p1 = art_sum () > tol in
    let phase1_failed = ref false in
    let phase1_stopped = ref None in
    if need_p1 then begin
      let c1 = Array.make n 0. in
      for i = 0 to m - 1 do
        c1.(art_col.(i)) <- -1.
      done;
      set_z t c1;
      try optimize ~iters ~c:c1 t with
      | Unbounded_exc -> phase1_failed := true
      | Stop_exc reason -> phase1_stopped := Some reason
    end;
    if !phase1_stopped = None && not !phase1_failed then begin
      if art_sum () > tol *. 10. then phase1_failed := true
      else begin
        for i = 0 to m - 1 do
          if basis.(i) >= art_start then begin
            let found = ref (-1) in
            for j = 0 to art_start - 1 do
              if !found = -1 && (not (fixed t j)) && Float.abs t.a.(i).(j) > tol
              then found := j
            done;
            if !found >= 0 then begin
              let col = !found in
              let v = nb_value t col in
              status.(basis.(i)) <- Vlower;
              status.(col) <- Vbasic;
              basis.(i) <- col;
              xb.(i) <- v;
              pivot_tab t ~row:i ~col
            end
          end
        done;
        for i = 0 to m - 1 do
          t.lo.(art_col.(i)) <- 0.;
          t.hi.(art_col.(i)) <- 0.
        done
      end
    end;
    let outcome =
      match !phase1_stopped with
      | Some reason -> stopped reason ~best_objective:None
      | None ->
          if !phase1_failed then S.Infeasible
          else begin
            let sign = if p.S.maximize then 1. else -1. in
            let c2 = Array.make n 0. in
            List.iter
              (fun (j, v) -> c2.(j) <- c2.(j) +. (sign *. v))
              p.S.objective;
            set_z t c2;
            match optimize ~iters ~c:c2 t with
            | exception Unbounded_exc -> S.Unbounded
            | exception Stop_exc reason ->
                stopped reason ~best_objective:(Some (sign *. objective_of t c2))
            | () -> (
                let sol = extract_solution t ~sign ~c2 in
                match S.check_solution p sol with
                | Ok () -> S.Optimal sol
                | Error msg -> stopped (S.Numeric msg) ~best_objective:None)
          end
    in
    (outcome, !iters)
  end

let solve_stats p =
  validate p;
  cold_solve (normalize p)

let solve p = fst (solve_stats p)
