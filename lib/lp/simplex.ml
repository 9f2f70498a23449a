(* Sparse revised simplex with a factorized basis.

   The problem matrix is stored once in CSC form (structural columns from
   the constraint rows, one ±1 slack singleton per inequality row, one ±1
   artificial singleton per row) and never modified by pivoting. The
   basis inverse is a product-form eta file: refactorization pivots the
   current basis columns through the file one by one (singletons first,
   then by ascending column nonzero count — the near-triangular order the
   PC matrices are full of), and every basis exchange appends one eta
   built from the FTRAN'd entering column. After [refactor_interval]
   appended etas the file is rebuilt from scratch and the basic values
   are recomputed, which both caps eta-file growth and washes out
   accumulated float drift.

   FTRAN/BTRAN run over Bigarray-backed dense work vectors
   ({!Pc_util.Fvec}) with write-tracked sparsity patterns, so a solve
   touches O(column nnz · eta nnz) floats per pivot instead of the dense
   tableau's O(mn). Pricing is devex over a maintained candidate list
   (reduced costs cached per candidate and refreshed only when the basis
   changes), with the historical Bland's-rule fallback after a stall so
   termination is still guaranteed.

   Everything *around* the core is unchanged from the dense
   implementation: two-phase cold solves, bounded-variable statuses with
   bound-flip pivots, structured [Stopped] outcomes, the post-solve
   self-check, and the dual-simplex warm start that falls back to a cold
   solve on any numeric doubt. The pre-rework dense tableau survives as
   the test oracle [test/oracle/dense_tableau.ml], which the qcheck
   properties pit this file against. *)

module B = Pc_budget.Budget
module Counter = Pc_obs.Registry.Counter
module V = Pc_util.Fvec

(* Registered once at load time; solve flushes its local tallies with
   [Counter.add] so the per-pivot loop stays free of atomic ops. The
   [ftran_ns]/[btran_ns] pair is only accumulated while the metrics
   registry is enabled (a clock read per kernel call is not free). *)
let c_solves = Counter.make "lp.solves"
let c_pivots = Counter.make "lp.pivots"
let c_phase1_pivots = Counter.make "lp.phase1_pivots"
let c_bland = Counter.make "lp.bland_activations"
let c_warm = Counter.make "lp.warm_starts"
let c_warm_fb = Counter.make "lp.warm_fallbacks"
let c_dual_pivots = Counter.make "lp.dual_pivots"
let c_refact = Counter.make "lp.refactorizations"
let c_eta_len = Counter.make "lp.eta_len"
let c_ftran_ns = Counter.make "lp.ftran_ns"
let c_btran_ns = Counter.make "lp.btran_ns"
let h_solve = Pc_obs.Registry.Histogram.make "lp.solve.ns"

type relop = Le | Ge | Eq

type constr = { coeffs : (int * float) list; op : relop; rhs : float }

type problem = {
  n_vars : int;
  maximize : bool;
  objective : (int * float) list;
  constraints : constr list;
  var_bounds : (int * float * float) list;
}

type solution = { objective_value : float; values : float array }

type stop_reason = Iteration_limit | Deadline | Numeric of string

type stop = {
  reason : stop_reason;
  best_objective : float option;
  iterations : int;
}

type outcome = Optimal of solution | Infeasible | Unbounded | Stopped of stop

(* The column layout (structurals, one slack per inequality row, one
   artificial per row) is fixed by the problem shape alone, so a snapshot
   stays valid when only the variable bounds change. The artificial signs
   are the one bound-dependent artifact of the originating solve, recorded
   so the restored basis matrix matches the parent's exactly. *)
type snapshot = {
  s_nv : int;
  s_m : int;
  s_basis : int array;  (* basic column of each row *)
  s_at_upper : bool array;  (* per column: nonbasic at its upper bound *)
  s_art_neg : bool array;  (* per row: artificial column carries -1 *)
}

let c_le coeffs rhs = { coeffs; op = Le; rhs }
let c_ge coeffs rhs = { coeffs; op = Ge; rhs }
let c_eq coeffs rhs = { coeffs; op = Eq; rhs }

let tol = 1e-7
let max_iters = 1_000_000

let refactor_interval = 64

(* Canonicalize a sparse row: sort by index, sum duplicates once, drop
   exact zeros — so [(0,1.); (0,1.)] means 2 x0 regardless of which layer
   built the list. *)
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

let normalize p =
  {
    p with
    objective = canon_coeffs p.objective;
    constraints =
      List.map (fun c -> { c with coeffs = canon_coeffs c.coeffs }) p.constraints;
  }

let validate p =
  if p.n_vars < 0 then invalid_arg "Simplex: negative n_vars";
  let check_term (j, c) =
    if j < 0 || j >= p.n_vars then invalid_arg "Simplex: variable index out of range";
    if not (Float.is_finite c) then invalid_arg "Simplex: non-finite coefficient"
  in
  List.iter check_term p.objective;
  List.iter
    (fun cn ->
      List.iter check_term cn.coeffs;
      if not (Float.is_finite cn.rhs) then invalid_arg "Simplex: non-finite rhs")
    p.constraints;
  List.iter
    (fun (j, l, h) ->
      if j < 0 || j >= p.n_vars then
        invalid_arg "Simplex: bound variable index out of range";
      if Float.is_nan l || Float.is_nan h then invalid_arg "Simplex: NaN bound")
    p.var_bounds

(* Dense [lo, hi] per structural variable: the problem's sparse boxes (or
   the caller's override) intersected with the implicit x >= 0 domain. *)
let bounds_arrays ?bounds p =
  match bounds with
  | Some (l, h) ->
      if Array.length l <> p.n_vars || Array.length h <> p.n_vars then
        invalid_arg "Simplex: bounds arrays must have length n_vars";
      (Array.map (Float.max 0.) l, Array.copy h)
  | None ->
      let lo = Array.make p.n_vars 0. and hi = Array.make p.n_vars infinity in
      List.iter
        (fun (j, l, h) ->
          lo.(j) <- Float.max lo.(j) l;
          hi.(j) <- Float.min hi.(j) h)
        p.var_bounds;
      (lo, hi)

(* Post-solve self-check: residual feasibility of every constraint, each
   variable within its box, and objective consistency, with tolerances
   scaled by row magnitude — catches factorization drift before a wrong
   "optimal" answer escapes into a bound. *)
let check_solution_arrays ~vlo ~vhi p (sol : solution) =
  let eps = 1e-6 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  Array.iteri
    (fun j v ->
      if not (Float.is_finite v) then
        fail (Printf.sprintf "variable %d is non-finite" j)
      else begin
        let slack = eps *. Float.max 1. (Float.abs v) in
        if v < vlo.(j) -. slack then
          fail (Printf.sprintf "variable %d below lower bound (%g < %g)" j v vlo.(j))
        else if v > vhi.(j) +. slack then
          fail (Printf.sprintf "variable %d above upper bound (%g > %g)" j v vhi.(j))
      end)
    sol.values;
  List.iteri
    (fun i (c : constr) ->
      let lhs, mag =
        List.fold_left
          (fun (acc, mag) (j, v) ->
            let term = v *. sol.values.(j) in
            (acc +. term, Float.max mag (Float.abs term)))
          (0., Float.abs c.rhs) c.coeffs
      in
      let slack = Float.max 1. mag *. eps in
      let ok =
        match c.op with
        | Le -> lhs <= c.rhs +. slack
        | Ge -> lhs >= c.rhs -. slack
        | Eq -> Float.abs (lhs -. c.rhs) <= slack
      in
      if not ok then
        fail
          (Printf.sprintf "constraint %d residual: lhs %g vs rhs %g" i lhs c.rhs))
    p.constraints;
  let recomputed =
    List.fold_left (fun acc (j, v) -> acc +. (v *. sol.values.(j))) 0. p.objective
  in
  let mag = Float.max 1. (Float.abs recomputed) in
  if Float.abs (recomputed -. sol.objective_value) > 1e-5 *. mag then
    fail
      (Printf.sprintf "objective drift: reported %g, recomputed %g"
         sol.objective_value recomputed);
  match !err with None -> Ok () | Some msg -> Error msg

let check_solution p sol =
  let vlo, vhi = bounds_arrays p in
  check_solution_arrays ~vlo ~vhi p sol

(* ---- Shared problem arrays, CSC. The column layout is a function of
   the problem shape alone: structurals [0, nv), one slack per inequality
   row, then one artificial per row. Artificial values default to +1
   here; the caller stamps their signs (cold: from phase-1 residuals;
   warm: from the snapshot) by writing the singleton's [b_vals] slot. ---- *)

type build = {
  b_m : int;
  b_n : int;
  b_art_start : int;
  b_colp : int array;  (* n+1 column pointers *)
  b_rowi : int array;  (* row index per entry *)
  b_vals : float array;  (* value per entry *)
  b_rhs : float array;
  b_ops : relop array;
  b_slack_col : int array;  (* -1 for Eq rows *)
  b_art_col : int array;
  b_lo : float array;  (* length n *)
  b_hi : float array;
}

let build ?bounds p =
  let cons = Array.of_list p.constraints in
  let m = Array.length cons in
  let nv = p.n_vars in
  let n_slack =
    Array.fold_left
      (fun acc c -> match c.op with Le | Ge -> acc + 1 | Eq -> acc)
      0 cons
  in
  let n = nv + n_slack + m in
  let art_start = nv + n_slack in
  let counts = Array.make (n + 1) 0 in
  Array.iter
    (fun c -> List.iter (fun (j, _) -> counts.(j) <- counts.(j) + 1) c.coeffs)
    cons;
  for j = nv to n - 1 do
    counts.(j) <- 1 (* slack and artificial singletons *)
  done;
  let colp = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    colp.(j + 1) <- colp.(j) + counts.(j)
  done;
  let nnz = colp.(n) in
  let rowi = Array.make (Stdlib.max 1 nnz) 0 in
  let vals = Array.make (Stdlib.max 1 nnz) 0. in
  let cursor = Array.sub colp 0 (Stdlib.max 1 n) in
  let put j row v =
    let s = cursor.(j) in
    rowi.(s) <- row;
    vals.(s) <- v;
    cursor.(j) <- s + 1
  in
  let rhs = Array.make m 0. in
  let ops = Array.map (fun c -> c.op) cons in
  let slack_col = Array.make m (-1) in
  let art_col = Array.make m (-1) in
  let lo = Array.make n 0. and hi = Array.make n infinity in
  let vlo, vhi = bounds_arrays ?bounds p in
  Array.blit vlo 0 lo 0 nv;
  Array.blit vhi 0 hi 0 nv;
  let next_slack = ref nv in
  Array.iteri
    (fun i c ->
      List.iter (fun (j, v) -> put j i v) c.coeffs;
      rhs.(i) <- c.rhs;
      (match c.op with
      | Le ->
          put !next_slack i 1.;
          slack_col.(i) <- !next_slack;
          incr next_slack
      | Ge ->
          put !next_slack i (-1.);
          slack_col.(i) <- !next_slack;
          incr next_slack
      | Eq -> ());
      let ac = art_start + i in
      art_col.(i) <- ac;
      put ac i 1.)
    cons;
  {
    b_m = m;
    b_n = n;
    b_art_start = art_start;
    b_colp = colp;
    b_rowi = rowi;
    b_vals = vals;
    b_rhs = rhs;
    b_ops = ops;
    b_slack_col = slack_col;
    b_art_col = art_col;
    b_lo = lo;
    b_hi = hi;
  }

let domain_empty bld nv =
  let empty = ref false in
  for j = 0 to nv - 1 do
    if bld.b_lo.(j) > bld.b_hi.(j) then empty := true
  done;
  !empty

(* ---- Product-form eta file. An eta records one pivot: FTRAN scales the
   pivot slot by [1/ediag] and subtracts the off-pivot column; BTRAN is
   the transposed update. B^-1 = E_k ... E_1 over the file in order. ---- *)

type eta = { er : int; ediag : float; eidx : int array; evals : float array }

type etafile = {
  mutable e_arr : eta array;
  mutable e_len : int;
  mutable e_base : int;  (* file length right after the last refactorization *)
}

let dummy_eta = { er = 0; ediag = 1.; eidx = [||]; evals = [||] }

let ef_create () = { e_arr = Array.make 64 dummy_eta; e_len = 0; e_base = 0 }

let ef_reset ef =
  ef.e_len <- 0;
  ef.e_base <- 0

let ef_append ef eta =
  if ef.e_len = Array.length ef.e_arr then begin
    let bigger = Array.make (2 * ef.e_len) dummy_eta in
    Array.blit ef.e_arr 0 bigger 0 ef.e_len;
    ef.e_arr <- bigger
  end;
  ef.e_arr.(ef.e_len) <- eta;
  ef.e_len <- ef.e_len + 1

(* ---- Mutable revised-simplex state for one solve. ---- *)

type vstat = Vbasic | Vlower | Vupper

type rsm = {
  m : int;  (* constraint rows *)
  n : int;  (* total columns: structural + slack + artificial *)
  nv : int;  (* structural columns *)
  colp : int array;  (* CSC of the full column set, never mutated *)
  rowi : int array;
  avals : float array;
  rhs : float array;
  lo : float array;  (* per-column bounds, length n *)
  hi : float array;
  basis : int array;  (* basic column of each row *)
  xb : float array;  (* value of each row's basic variable *)
  status : vstat array;  (* length n *)
  banned : bool array;  (* columns excluded from entering (artificials) *)
  ef : etafile;
  w : V.t;  (* FTRAN work vector, pattern-tracked *)
  y : V.t;  (* BTRAN pricing vector, used densely *)
  rho : V.t;  (* BTRAN unit-row vector, used densely *)
  dw : float array;  (* devex reference weights, length n *)
  mutable cand : int array;  (* candidate entering columns *)
  mutable cand_r : float array;  (* cached reduced costs, parallel to cand *)
  mutable ncand : int;
  mutable y_valid : bool;
  fail : string -> exn;  (* how this path reports a broken factorization *)
  obs_time : bool;
  mutable ftran_ns : int;
  mutable btran_ns : int;
  mutable eta_entries : int;  (* total eta nnz appended, refactors included *)
  mutable refacts : int;
}

(* A column pinned to a single point can never move, so it can never be an
   entering candidate — in the primal (no improving step) or in the dual
   (no admissible direction). Excluding it is sound both ways. *)
let fixed t j = t.hi.(j) -. t.lo.(j) <= tol

let nb_value t j =
  match t.status.(j) with
  | Vlower -> t.lo.(j)
  | Vupper -> t.hi.(j)
  | Vbasic -> assert false

(* Objective of the current iterate in O(m + n): used once per phase to
   seed the incremental tracker, and for final/stop readouts. *)
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

(* ---- FTRAN / BTRAN kernels over the eta file. ---- *)

let ftran_apply t (x : V.t) =
  let t0 = if t.obs_time then Pc_util.Clock.now_ns () else 0L in
  let ef = t.ef in
  for k = 0 to ef.e_len - 1 do
    let e = Array.unsafe_get ef.e_arr k in
    let xr = V.uget x e.er in
    if xr <> 0. then begin
      let s = xr /. e.ediag in
      V.uset x e.er s;
      let idx = e.eidx and vals = e.evals in
      for q = 0 to Array.length idx - 1 do
        V.add x (Array.unsafe_get idx q) (-.Array.unsafe_get vals q *. s)
      done
    end
  done;
  if t.obs_time then
    t.ftran_ns <-
      t.ftran_ns
      + Int64.to_int (Int64.sub (Pc_util.Clock.now_ns ()) t0)

let btran_apply t (x : V.t) =
  let t0 = if t.obs_time then Pc_util.Clock.now_ns () else 0L in
  let ef = t.ef in
  for k = ef.e_len - 1 downto 0 do
    let e = Array.unsafe_get ef.e_arr k in
    let s =
      V.dot_sparse x ~idx:e.eidx ~vals:e.evals ~lo:0
        ~hi:(Array.length e.eidx)
    in
    V.uset x e.er ((V.uget x e.er -. s) /. e.ediag)
  done;
  if t.obs_time then
    t.btran_ns <-
      t.btran_ns
      + Int64.to_int (Int64.sub (Pc_util.Clock.now_ns ()) t0)

(* w := B^-1 a_j (pattern-tracked) *)
let load_ftran t j =
  V.clear t.w;
  V.scatter t.w ~idx:t.rowi ~vals:t.avals ~lo:t.colp.(j) ~hi:t.colp.(j + 1);
  ftran_apply t t.w

(* rho := B^-T e_row (dense use) *)
let load_btran_row t row =
  V.fill_all t.rho 0.;
  V.uset t.rho row 1.;
  btran_apply t t.rho

(* Reduced cost of column j under pricing vector y: r_j = c_j - y·a_j.
   Positive means increasing x_j raises the (maximization) objective. *)
let rcost t ~c j =
  c.(j)
  -. V.dot_sparse t.y ~idx:t.rowi ~vals:t.avals ~lo:t.colp.(j)
       ~hi:t.colp.(j + 1)

(* y := B^-T c_B, recomputed only when the basis (or the phase objective)
   changed; bound flips leave it valid. Candidate reduced costs are
   cached alongside and refreshed with it. *)
let ensure_y t ~c =
  if not t.y_valid then begin
    V.fill_all t.y 0.;
    for i = 0 to t.m - 1 do
      let cb = c.(t.basis.(i)) in
      if cb <> 0. then V.uset t.y i cb
    done;
    btran_apply t t.y;
    for k = 0 to t.ncand - 1 do
      let j = t.cand.(k) in
      t.cand_r.(k) <- (if t.status.(j) = Vbasic then 0. else rcost t ~c j)
    done;
    t.y_valid <- true
  end

let eta_of_w t ~row =
  let nz = ref 0 in
  V.iter_nz t.w (fun i v -> if i <> row && v <> 0. then incr nz);
  let eidx = Array.make !nz 0 and evals = Array.make !nz 0. in
  let k = ref 0 in
  V.iter_nz t.w (fun i v ->
      if i <> row && v <> 0. then begin
        eidx.(!k) <- i;
        evals.(!k) <- v;
        incr k
      end);
  t.eta_entries <- t.eta_entries + !nz + 1;
  { er = row; ediag = V.uget t.w row; eidx; evals }

(* ---- Refactorization: rebuild the eta file from the current basis
   column set. Columns are pivoted in ascending-nnz order (singleton
   slacks and artificials first), with the pivot row chosen by magnitude
   among rows not yet assigned — partial pivoting restricted to the
   unpivoted set. Row assignments may change; [xb] is recomputed from
   scratch afterwards, which is also the drift wash-out. *)

let refactorize t =
  let cols = Array.copy t.basis in
  Array.sort
    (fun a b ->
      let na = t.colp.(a + 1) - t.colp.(a)
      and nb = t.colp.(b + 1) - t.colp.(b) in
      if na <> nb then Int.compare na nb else Int.compare a b)
    cols;
  ef_reset t.ef;
  let pivoted = Array.make (Stdlib.max 1 t.m) false in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < t.m do
    let c = cols.(!k) in
    load_ftran t c;
    let best = ref (-1) and best_mag = ref 1e-9 in
    V.iter_nz t.w (fun i v ->
        if not pivoted.(i) then begin
          let mag = Float.abs v in
          if mag > !best_mag then begin
            best := i;
            best_mag := mag
          end
        end);
    if !best = -1 then ok := false
    else begin
      let row = !best in
      pivoted.(row) <- true;
      t.basis.(row) <- c;
      ef_append t.ef (eta_of_w t ~row)
    end;
    incr k
  done;
  V.clear t.w;
  if not !ok then Error "singular basis on refactorization"
  else begin
    t.ef.e_base <- t.ef.e_len;
    t.refacts <- t.refacts + 1;
    (* xb := B^-1 (b - Σ_nonbasic a_j v_j), fresh *)
    for i = 0 to t.m - 1 do
      V.set t.w i t.rhs.(i)
    done;
    for j = 0 to t.n - 1 do
      if t.status.(j) <> Vbasic then begin
        let v = nb_value t j in
        if v <> 0. then
          for s = t.colp.(j) to t.colp.(j + 1) - 1 do
            V.add t.w t.rowi.(s) (-.t.avals.(s) *. v)
          done
      end
    done;
    ftran_apply t t.w;
    for i = 0 to t.m - 1 do
      t.xb.(i) <- V.uget t.w i
    done;
    V.clear t.w;
    t.y_valid <- false;
    Ok ()
  end

let refactor_now t =
  match refactorize t with Ok () -> () | Error msg -> raise (t.fail msg)

let maybe_refactor t =
  if t.ef.e_len - t.ef.e_base >= refactor_interval then refactor_now t

let make_rsm ~fail ~obs_time ~nv bld =
  let m = bld.b_m and n = bld.b_n in
  {
    m;
    n;
    nv;
    colp = bld.b_colp;
    rowi = bld.b_rowi;
    avals = bld.b_vals;
    rhs = bld.b_rhs;
    lo = bld.b_lo;
    hi = bld.b_hi;
    basis = Array.make (Stdlib.max 1 m) (-1);
    xb = Array.make (Stdlib.max 1 m) 0.;
    status = Array.make (Stdlib.max 1 n) Vlower;
    banned = Array.make (Stdlib.max 1 n) false;
    ef = ef_create ();
    w = V.create (Stdlib.max 1 m);
    y = V.create (Stdlib.max 1 m);
    rho = V.create (Stdlib.max 1 m);
    dw = Array.make (Stdlib.max 1 n) 1.;
    cand = [||];
    cand_r = [||];
    ncand = 0;
    y_valid = false;
    fail;
    obs_time;
    ftran_ns = 0;
    btran_ns = 0;
    eta_entries = 0;
    refacts = 0;
  }

(* ---- Pricing: devex over a maintained candidate list. ---- *)

let candidate_cap t = Stdlib.max 64 (Stdlib.min 1024 (t.n / 8))

let viol_of t j r =
  match t.status.(j) with
  | Vlower -> r
  | Vupper -> -.r
  | Vbasic -> neg_infinity

let eligible t j = (not t.banned.(j)) && (not (fixed t j)) && t.status.(j) <> Vbasic

(* Full-price every column and rebuild the candidate list from the
   violating ones (largest devex scores first, capped). Returns the best
   entering column or None at optimality. *)
let refresh_candidates t ~c =
  let cap = candidate_cap t in
  let found = ref [] in
  let nfound = ref 0 in
  for j = t.n - 1 downto 0 do
    if eligible t j then begin
      let r = rcost t ~c j in
      if viol_of t j r > tol then begin
        found := (j, r) :: !found;
        incr nfound
      end
    end
  done;
  if !nfound = 0 then begin
    t.ncand <- 0;
    None
  end
  else begin
    let arr = Array.of_list !found in
    let score (j, r) = r *. r /. t.dw.(j) in
    if !nfound > cap then
      Array.sort (fun a b -> Float.compare (score b) (score a)) arr;
    let keep = Stdlib.min cap !nfound in
    if Array.length t.cand < keep then begin
      t.cand <- Array.make (Stdlib.max keep 64) 0;
      t.cand_r <- Array.make (Stdlib.max keep 64) 0.
    end;
    let best = ref (-1) and best_r = ref 0. and best_score = ref neg_infinity in
    for k = 0 to keep - 1 do
      let j, r = arr.(k) in
      t.cand.(k) <- j;
      t.cand_r.(k) <- r;
      let s = score (j, r) in
      if s > !best_score then begin
        best := j;
        best_r := r;
        best_score := s
      end
    done;
    t.ncand <- keep;
    Some (!best, !best_r)
  end

(* Entering column. Devex path: scan the candidate list with cached
   reduced costs; fall back to a full re-price when it runs dry. Bland
   path: lowest-index violating column over a full scan — the
   termination guarantee after a stall. *)
let entering t ~c ~bland =
  ensure_y t ~c;
  if bland then begin
    let best = ref None in
    let j = ref 0 in
    while !best = None && !j < t.n do
      (if eligible t !j then
         let r = rcost t ~c !j in
         if viol_of t !j r > tol then best := Some (!j, r));
      incr j
    done;
    !best
  end
  else begin
    let best = ref (-1) and best_r = ref 0. and best_score = ref neg_infinity in
    for k = 0 to t.ncand - 1 do
      let j = t.cand.(k) in
      if eligible t j then begin
        let r = t.cand_r.(k) in
        if viol_of t j r > tol then begin
          let s = r *. r /. t.dw.(j) in
          if s > !best_score then begin
            best := j;
            best_r := r;
            best_score := s
          end
        end
      end
    done;
    if !best >= 0 then Some (!best, !best_r) else refresh_candidates t ~c
  end

exception Unbounded_exc
exception Stop_exc of stop_reason

(* Devex weight update for a basis exchange: the reference-framework
   update restricted to the candidate list (the only columns whose pivot
   row entries we price anyway). rho must be B_old^-T e_row — computed
   before the new eta is appended. *)
let devex_update t ~row ~col ~piv =
  load_btran_row t row;
  let wq = t.dw.(col) in
  let piv2 = piv *. piv in
  let maxw = ref 0. in
  for k = 0 to t.ncand - 1 do
    let j = t.cand.(k) in
    if j <> col && t.status.(j) <> Vbasic then begin
      let alpha =
        V.dot_sparse t.rho ~idx:t.rowi ~vals:t.avals ~lo:t.colp.(j)
          ~hi:t.colp.(j + 1)
      in
      if alpha <> 0. then begin
        let cand_w = alpha *. alpha /. piv2 *. wq in
        if cand_w > t.dw.(j) then t.dw.(j) <- cand_w
      end;
      if t.dw.(j) > !maxw then maxw := t.dw.(j)
    end
  done;
  let leaving = t.basis.(row) in
  t.dw.(leaving) <- Float.max 1. (wq /. piv2);
  if Float.max !maxw t.dw.(leaving) > 1e8 then Array.fill t.dw 0 t.n 1.

(* One bounded-variable primal step on entering column [col] with reduced
   cost [r]: the step length is limited by the entering variable's own
   opposite bound (a pure bound flip, no basis change) or by the first
   basic variable to hit one of its bounds (a regular exchange). Ties
   between rows break toward the smallest basic index, which combines
   well with Bland's rule. Returns the signed step (the caller's reduced
   cost [r] moves the objective by [r *. step]). *)
let primal_step t ~col =
  let d =
    match t.status.(col) with
    | Vlower -> 1.
    | Vupper -> -1.
    | Vbasic -> assert false
  in
  load_ftran t col;
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
  V.iter_nz t.w (fun i wv ->
      let rate = -.(d *. wv) in
      if rate > tol then begin
        let head = t.hi.(t.basis.(i)) -. t.xb.(i) in
        if Float.is_finite head then consider i (Float.max 0. (head /. rate)) true
      end
      else if rate < -.tol then begin
        let head = t.xb.(i) -. t.lo.(t.basis.(i)) in
        consider i (Float.max 0. (head /. -.rate)) false
      end);
  if not (Float.is_finite !best_t) then raise Unbounded_exc;
  let step = d *. !best_t in
  if !best_row = -1 then begin
    V.iter_nz t.w (fun i wv -> t.xb.(i) <- t.xb.(i) -. (wv *. step));
    t.status.(col) <-
      (match t.status.(col) with
      | Vlower -> Vupper
      | Vupper -> Vlower
      | Vbasic -> assert false)
  end
  else begin
    let row = !best_row in
    let enter_val = nb_value t col +. step in
    V.iter_nz t.w (fun i wv -> t.xb.(i) <- t.xb.(i) -. (wv *. step));
    let leaving = t.basis.(row) in
    t.status.(leaving) <- (if !leave_at_upper then Vupper else Vlower);
    t.status.(col) <- Vbasic;
    t.basis.(row) <- col;
    t.xb.(row) <- enter_val;
    let piv = V.uget t.w row in
    devex_update t ~row ~col ~piv;
    ef_append t.ef (eta_of_w t ~row);
    t.y_valid <- false;
    maybe_refactor t
  end;
  step

(* [iters] is shared across phases so a stop reports the solve's total
   pivot count. Deadline checks are amortized: every 64 pivots. *)
let charge ?budget ~iters () =
  if !iters > max_iters then raise (Stop_exc Iteration_limit);
  match budget with
  | None -> ()
  | Some b ->
      if not (B.take_iter b) then raise (Stop_exc Iteration_limit);
      if !iters land 63 = 0 && B.out_of_time b then raise (Stop_exc Deadline)

let optimize ?budget ~iters ~bland_acts ~c t =
  t.y_valid <- false;
  t.ncand <- 0;
  let stall = ref 0 in
  let was_bland = ref false in
  let continue_ = ref true in
  while !continue_ do
    charge ?budget ~iters ();
    let bland = !stall > 2 * (t.m + t.n) in
    if bland <> !was_bland then begin
      if bland then incr bland_acts;
      was_bland := bland
    end;
    match entering t ~c ~bland with
    | None -> continue_ := false
    | Some (col, r) ->
        let step = primal_step t ~col in
        incr iters;
        (* objective moved by r·step; exact enough for stall detection,
           and the final objective is recomputed from scratch anyway *)
        if r *. step > tol then stall := 0 else incr stall
  done

let snap_of t ~art_neg =
  {
    s_nv = t.nv;
    s_m = t.m;
    s_basis = Array.copy t.basis;
    s_at_upper = Array.init t.n (fun j -> t.status.(j) = Vupper);
    s_art_neg = Array.copy art_neg;
  }

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
  (* snap values resting within tolerance of a bound onto it *)
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
  { objective_value = sign *. objective_of t c2; values }

let flush_factor_stats t =
  Counter.add c_refact t.refacts;
  Counter.add c_eta_len t.eta_entries;
  if t.obs_time then begin
    Counter.add c_ftran_ns t.ftran_ns;
    Counter.add c_btran_ns t.btran_ns
  end

(* ---- Cold two-phase solve. [p] must already be validated/normalized.
   Returns the outcome and, on Optimal, a basis snapshot. ---- *)
let cold_solve ?budget ?bounds p =
  let bld = build ?bounds p in
  let m = bld.b_m and nv = p.n_vars in
  if domain_empty bld nv then (Infeasible, None)
  else begin
    let art_start = bld.b_art_start in
    let exception Cold_numeric of string in
    let t =
      make_rsm ~fail:(fun msg -> Cold_numeric msg)
        ~obs_time:(Pc_obs.Registry.enabled ()) ~nv bld
    in
    let art_neg = Array.make m false in
    (* Initial basis: structurals at their lower bounds; each row gets its
       slack when the residual sign permits, otherwise a residual-signed
       artificial whose sign is stamped into the CSC singleton. *)
    let resid = Array.copy bld.b_rhs in
    for j = 0 to nv - 1 do
      let l = bld.b_lo.(j) in
      if l <> 0. then
        for s = bld.b_colp.(j) to bld.b_colp.(j + 1) - 1 do
          resid.(bld.b_rowi.(s)) <- resid.(bld.b_rowi.(s)) -. (bld.b_vals.(s) *. l)
        done
    done;
    for i = 0 to m - 1 do
      let r = resid.(i) in
      let art_basic neg =
        art_neg.(i) <- neg;
        t.basis.(i) <- bld.b_art_col.(i)
      in
      match bld.b_ops.(i) with
      | Le -> if r >= 0. then t.basis.(i) <- bld.b_slack_col.(i) else art_basic true
      | Ge -> if r <= 0. then t.basis.(i) <- bld.b_slack_col.(i) else art_basic false
      | Eq -> art_basic (r < 0.)
    done;
    for i = 0 to m - 1 do
      let ac = bld.b_art_col.(i) in
      t.avals.(bld.b_colp.(ac)) <- (if art_neg.(i) then -1. else 1.);
      t.banned.(ac) <- true
    done;
    for i = 0 to m - 1 do
      t.status.(t.basis.(i)) <- Vbasic
    done;
    let iters = ref 0 in
    let bland_acts = ref 0 in
    let stopped reason ~best_objective =
      Stopped { reason; best_objective; iterations = !iters }
    in
    let result =
      try
        (* all-singleton initial basis: the refactorization is m trivial
           etas, and it computes the initial xb from the residuals *)
        refactor_now t;
        let art_sum () =
          let s = ref 0. in
          for i = 0 to m - 1 do
            if t.basis.(i) >= art_start then s := !s +. Float.abs t.xb.(i)
          done;
          !s
        in
        let phase1_failed = ref false in
        let phase1_stopped = ref None in
        if art_sum () > tol then begin
          let c1 = Array.make t.n 0. in
          for i = 0 to m - 1 do
            c1.(bld.b_art_col.(i)) <- -1.
          done;
          (* Artificials may leave the basis but never re-enter: once
             phase 1 drives one to zero it stays there, and if the
             problem is feasible a point with every artificial at zero
             exists, so the restriction cannot produce a false
             Infeasible. *)
          try optimize ?budget ~iters ~bland_acts ~c:c1 t with
          | Unbounded_exc ->
              (* Invariant: the phase-1 objective -(Σ artificials) is
                 bounded above by 0, so an unbounded ray is impossible by
                 construction. If float drift ever manufactures one, no
                 feasible basis was certified either way — degrade to
                 Infeasible (the caller-safe answer for "phase 1 did not
                 produce a feasible basis") instead of killing the
                 caller. *)
              phase1_failed := true
          | Stop_exc reason -> phase1_stopped := Some reason
        end;
        if !phase1_stopped = None && not !phase1_failed then begin
          if art_sum () > tol *. 10. then phase1_failed := true
          else begin
            (* Drive out artificials still basic at zero with a degenerate
               exchange (nothing moves; the entering variable becomes
               basic at its current bound value), then pin every
               artificial to [0, 0] — phase 1 certified a feasible point
               with all of them at zero. *)
            for i = 0 to m - 1 do
              if t.basis.(i) >= art_start then begin
                load_btran_row t i;
                let found = ref (-1) in
                let j = ref 0 in
                while !found = -1 && !j < art_start do
                  (if t.status.(!j) <> Vbasic && not (fixed t !j) then
                     let alpha =
                       V.dot_sparse t.rho ~idx:t.rowi ~vals:t.avals
                         ~lo:t.colp.(!j) ~hi:t.colp.(!j + 1)
                     in
                     if Float.abs alpha > tol then found := !j);
                  incr j
                done;
                if !found >= 0 then begin
                  let col = !found in
                  let v = nb_value t col in
                  load_ftran t col;
                  t.status.(t.basis.(i)) <- Vlower;
                  t.status.(col) <- Vbasic;
                  t.basis.(i) <- col;
                  t.xb.(i) <- v;
                  ef_append t.ef (eta_of_w t ~row:i);
                  t.y_valid <- false;
                  maybe_refactor t
                end
                (* else: redundant row, harmless to keep with the
                   artificial at 0 *)
              end
            done;
            for i = 0 to m - 1 do
              let aj = bld.b_art_col.(i) in
              t.lo.(aj) <- 0.;
              t.hi.(aj) <- 0.
            done
          end
        end;
        let phase1_iters = !iters in
        let result =
          match !phase1_stopped with
          | Some reason -> (stopped reason ~best_objective:None, None)
          | None ->
              if !phase1_failed then (Infeasible, None)
              else begin
                (* ---- Phase 2: real objective, as maximization. ---- *)
                let sign = if p.maximize then 1. else -1. in
                let c2 = Array.make t.n 0. in
                List.iter
                  (fun (j, v) -> c2.(j) <- c2.(j) +. (sign *. v))
                  p.objective;
                Array.fill t.dw 0 t.n 1.;
                match optimize ?budget ~iters ~bland_acts ~c:c2 t with
                | exception Unbounded_exc -> (Unbounded, None)
                | exception Stop_exc reason ->
                    (* The iterate is primal-feasible throughout phase 2,
                       so the current objective is the value of a genuine
                       feasible point (a primal bound), reported as the
                       best-so-far. *)
                    ( stopped reason
                        ~best_objective:(Some (sign *. objective_of t c2)),
                      None )
                | () -> (
                    let sol = extract_solution t ~sign ~c2 in
                    let vlo = Array.sub t.lo 0 nv
                    and vhi = Array.sub t.hi 0 nv in
                    match check_solution_arrays ~vlo ~vhi p sol with
                    | Ok () -> (Optimal sol, Some (snap_of t ~art_neg))
                    | Error msg ->
                        (* A drifted factorization's answer must not
                           escape into a hard bound; report distrust and
                           let the caller degrade. *)
                        (stopped (Numeric msg) ~best_objective:None, None))
              end
        in
        Counter.add c_phase1_pivots phase1_iters;
        result
      with
      | Cold_numeric msg ->
          (stopped (Numeric msg) ~best_objective:None, None)
      | Stop_exc reason -> (stopped reason ~best_objective:None, None)
    in
    Counter.incr c_solves;
    Counter.add c_pivots !iters;
    Counter.add c_bland !bland_acts;
    flush_factor_stats t;
    result
  end

(* ---- Warm re-solve from a basis snapshot under new bounds. ---- *)

exception Fallback of string

(* Past this many dual pivots something is off (cycling on a degenerate
   basis, or a bound change far too large for a warm start to pay off) —
   hand the problem to the cold path rather than grind on. *)
let warm_cap m n = Stdlib.max 64 (4 * (m + n))

let warm_solve ?budget ~snapshot ~bounds p =
  let bld = build ~bounds p in
  let m = bld.b_m and n = bld.b_n and nv = p.n_vars in
  if snapshot.s_nv <> nv || snapshot.s_m <> m
     || Array.length snapshot.s_at_upper <> n
  then None (* shape mismatch: the snapshot is from another problem *)
  else if domain_empty bld nv then Some (Infeasible, None)
  else begin
    let iters = ref 0 in
    let dual_pivs = ref 0 in
    let bland_acts = ref 0 in
    let t =
      make_rsm ~fail:(fun msg -> Fallback msg)
        ~obs_time:(Pc_obs.Registry.enabled ()) ~nv bld
    in
    let flush () =
      Counter.add c_pivots !iters;
      Counter.add c_dual_pivots !dual_pivs;
      Counter.add c_bland !bland_acts;
      flush_factor_stats t
    in
    try
      for i = 0 to m - 1 do
        let ac = bld.b_art_col.(i) in
        t.avals.(bld.b_colp.(ac)) <-
          (if snapshot.s_art_neg.(i) then -1. else 1.);
        t.banned.(ac) <- true;
        (* artificials were pinned by the originating solve's phase 1 *)
        t.lo.(ac) <- 0.;
        t.hi.(ac) <- 0.
      done;
      for i = 0 to m - 1 do
        let c = snapshot.s_basis.(i) in
        if c < 0 || c >= n then raise (Fallback "snapshot column out of range");
        t.basis.(i) <- c
      done;
      for i = 0 to m - 1 do
        t.status.(t.basis.(i)) <- Vbasic
      done;
      for j = 0 to n - 1 do
        if
          t.status.(j) <> Vbasic
          && snapshot.s_at_upper.(j)
          && Float.is_finite t.hi.(j)
        then t.status.(j) <- Vupper
      done;
      (* Factorize the snapshot basis — the sparse replacement for the
         old dense Gauss–Jordan restore. A singular set means the basis
         is unusable here: fall back. This also computes xb under the
         new bounds. *)
      refactor_now t;
      let sign = if p.maximize then 1. else -1. in
      let c2 = Array.make t.n 0. in
      List.iter (fun (j, v) -> c2.(j) <- c2.(j) +. (sign *. v)) p.objective;
      ensure_y t ~c:c2;
      (* Dual-feasibility repair: reduced costs depend only on the basis,
         so after a pure bound change the snapshot statuses are already
         dual-feasible — unless a status refers to a bound that no longer
         supports it, in which case flipping to the other (finite) bound
         restores the sign condition. An unflippable violation means the
         warm basis is not dual-usable: fall back. *)
      for j = 0 to n - 1 do
        if eligible t j then begin
          let r = rcost t ~c:c2 j in
          match t.status.(j) with
          | Vlower when r > tol ->
              if Float.is_finite t.hi.(j) then begin
                let d = t.hi.(j) -. t.lo.(j) in
                load_ftran t j;
                V.iter_nz t.w (fun i wv -> t.xb.(i) <- t.xb.(i) -. (wv *. d));
                t.status.(j) <- Vupper
              end
              else raise (Fallback "dual-infeasible restored statuses")
          | Vupper when r < -.tol ->
              let d = t.lo.(j) -. t.hi.(j) in
              load_ftran t j;
              V.iter_nz t.w (fun i wv -> t.xb.(i) <- t.xb.(i) -. (wv *. d));
              t.status.(j) <- Vlower
          | _ -> ()
        end
      done;
      (* ---- Dual simplex: drive out-of-bounds basic variables back into
         their boxes while keeping the reduced costs dual-feasible. ---- *)
      let cap = warm_cap m n in
      let infeasible = ref false in
      let stopped_reason = ref None in
      (try
         let continue_ = ref true in
         while !continue_ do
           let r = ref (-1) and worst = ref tol in
           for i = 0 to m - 1 do
             let b = t.basis.(i) in
             let v = Float.max (t.lo.(b) -. t.xb.(i)) (t.xb.(i) -. t.hi.(b)) in
             if v > !worst then begin
               r := i;
               worst := v
             end
           done;
           if !r = -1 then continue_ := false
           else begin
             if !dual_pivs >= cap then raise (Fallback "dual pivot cap");
             charge ?budget ~iters ();
             let row = !r in
             let b = t.basis.(row) in
             let below = t.xb.(row) < t.lo.(b) in
             ensure_y t ~c:c2;
             load_btran_row t row;
             (* Entering candidate: a nonbasic that can move x_B(row)
                back toward the violated bound; min-ratio |r_j| /
                |alpha_j| keeps dual feasibility. No candidate certifies
                primal infeasibility: x_B(row) is already extremal over
                every movable nonbasic. *)
             let best = ref (-1)
             and best_ratio = ref infinity
             and best_alpha = ref 0. in
             for j = 0 to n - 1 do
               if eligible t j then begin
                 let alpha =
                   V.dot_sparse t.rho ~idx:t.rowi ~vals:t.avals
                     ~lo:t.colp.(j) ~hi:t.colp.(j + 1)
                 in
                 let adm =
                   match t.status.(j) with
                   | Vlower -> if below then alpha < -.tol else alpha > tol
                   | Vupper -> if below then alpha > tol else alpha < -.tol
                   | Vbasic -> false
                 in
                 if adm then begin
                   let rj = rcost t ~c:c2 j in
                   let ratio = Float.abs rj /. Float.abs alpha in
                   if ratio < !best_ratio -. 1e-12 then begin
                     best := j;
                     best_ratio := ratio;
                     best_alpha := alpha
                   end
                 end
               end
             done;
             if !best = -1 then begin
               infeasible := true;
               continue_ := false
             end
             else begin
               let col = !best in
               let target = if below then t.lo.(b) else t.hi.(b) in
               load_ftran t col;
               (* the FTRAN'd pivot element; equals rho·a_col up to
                  roundoff, and the eta is built from this vector *)
               let piv = V.uget t.w row in
               let piv = if piv = 0. then !best_alpha else piv in
               let delta = (t.xb.(row) -. target) /. piv in
               let enter_val = nb_value t col +. delta in
               V.iter_nz t.w (fun i wv ->
                   if i <> row then t.xb.(i) <- t.xb.(i) -. (wv *. delta));
               t.status.(b) <- (if below then Vlower else Vupper);
               t.status.(col) <- Vbasic;
               t.basis.(row) <- col;
               t.xb.(row) <- enter_val;
               ef_append t.ef (eta_of_w t ~row);
               t.y_valid <- false;
               incr iters;
               incr dual_pivs;
               maybe_refactor t
             end
           end
         done
       with Stop_exc reason -> stopped_reason := Some reason);
      let result =
        match !stopped_reason with
        | Some reason ->
            (* starved mid-repair: primal infeasible, so no best-so-far *)
            (Stopped { reason; best_objective = None; iterations = !iters }, None)
        | None ->
            if !infeasible then (Infeasible, None)
            else begin
              (* primal cleanup: usually zero pivots — dual-feasible and
                 primal-feasible together mean optimal *)
              match optimize ?budget ~iters ~bland_acts ~c:c2 t with
              | exception Unbounded_exc ->
                  (* a bound tightening cannot unbound a bounded parent;
                     treat as numeric trouble *)
                  raise (Fallback "warm path reported unbounded")
              | exception Stop_exc reason ->
                  ( Stopped
                      {
                        reason;
                        best_objective = Some (sign *. objective_of t c2);
                        iterations = !iters;
                      },
                    None )
              | () -> (
                  let sol = extract_solution t ~sign ~c2 in
                  let vlo = Array.sub t.lo 0 nv
                  and vhi = Array.sub t.hi 0 nv in
                  match check_solution_arrays ~vlo ~vhi p sol with
                  | Ok () ->
                      (Optimal sol, Some (snap_of t ~art_neg:snapshot.s_art_neg))
                  | Error msg -> raise (Fallback msg))
            end
      in
      Counter.incr c_solves;
      flush ();
      Some result
    with Fallback _ ->
      flush ();
      None
  end

(* ---- Entry points. ---- *)

let solve_run ?budget ?bounds p =
  validate p;
  cold_solve ?budget ?bounds (normalize p)

let solve_from_run ?budget ~snapshot ~bounds p =
  validate p;
  Counter.incr c_warm;
  let p = normalize p in
  (* Fault injection: distrust the warm basis outright, as a failed
     post-solve self-check would, and take the cold fallback. The
     fallback is the soundness story for every real numeric doubt, so
     chaos runs exercise precisely the path they must prove. *)
  let doubt =
    Pc_fault.Fault.enabled () && Pc_fault.Fault.fire Pc_fault.Fault.Lp_doubt
  in
  match (if doubt then None else warm_solve ?budget ~snapshot ~bounds p) with
  | Some result -> result
  | None ->
      Counter.incr c_warm_fb;
      cold_solve ?budget ~bounds p

(* Span + latency histogram around the solve, kept out of the plain entry
   points so the disabled path is a single atomic load and a branch. *)
let observed f =
  let run () =
    let t0 = Pc_util.Clock.now_ns () in
    let r = f () in
    Pc_obs.Registry.Histogram.observe_ns h_solve
      (Int64.to_float (Int64.sub (Pc_util.Clock.now_ns ()) t0));
    r
  in
  if Pc_obs.Trace.enabled () then Pc_obs.Trace.with_span ~name:"lp.solve" run
  else run ()

let maybe_observed f =
  if Pc_obs.Trace.enabled () || Pc_obs.Registry.enabled () then observed f
  else f ()

let solve ?budget p = fst (maybe_observed (fun () -> solve_run ?budget p))

let solve_snapshot ?budget ?bounds p =
  maybe_observed (fun () -> solve_run ?budget ?bounds p)

let solve_from ?budget ~snapshot ~bounds p =
  maybe_observed (fun () -> solve_from_run ?budget ~snapshot ~bounds p)

let feasible ?budget p =
  match solve ?budget { p with objective = []; maximize = true } with
  | Optimal _ -> true
  | Infeasible -> false
  | Unbounded | Stopped _ -> true
