(* Sparse revised simplex with a factorized basis, compiled once per row
   set.

   [compile] validates a problem, canonicalizes its rows and lays out
   the problem matrix in CSC form (structural columns from the rows, one
   ±1 slack singleton per inequality row, one ±1 artificial singleton
   per row); [of_columns] takes the structural columns as given, and
   both finish in [finish]. The same value owns the solver's workspace:
   the basis and statuses, the basic values, the work vectors, the
   candidate arrays and the eta file. Every solve takes its own objective and variable
   boxes and resets that workspace instead of allocating one, so a solve
   pays for its pivots and little else.

   The basis inverse is a product-form eta file kept in flat arrays:
   refactorization pivots the current basis columns through the file one
   by one (singletons first, then by ascending column nonzero count — the
   near-triangular order the PC matrices are full of), and every basis
   exchange appends one eta built from the FTRAN'd entering column. After
   [refactor_interval] appended etas the file is rebuilt from scratch and
   the basic values are recomputed, which both caps eta-file growth and
   washes out accumulated float drift.

   FTRAN runs over a dense work vector with a write-tracked sparsity
   pattern, so a solve touches O(column nnz · eta nnz) floats per pivot
   instead of the dense tableau's O(mn). The kernels live in this file on
   plain float arrays: a float that crosses a compilation unit is boxed
   (dune's default profile compiles with -opaque, so nothing is inlined
   across modules), and the hot loops pass no closures. Pricing is devex
   over a maintained candidate list (reduced costs cached per candidate
   and refreshed only when the basis changes), with Bland's rule after a
   stall so termination is still guaranteed.

   Around the core: two-phase cold solves, bounded-variable statuses
   with bound-flip pivots, structured [Stopped] outcomes, the post-solve
   self-check, and the dual-simplex warm start that falls back to a cold
   solve on any numeric doubt. The pre-rework dense tableau survives as
   the test oracle [test/oracle/dense_tableau.ml], which the qcheck
   properties pit this file against. *)

module B = Pc_budget.Budget
module Counter = Pc_obs.Registry.Counter

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

type solution = {
  objective_value : float;
  values : float array;
  duals : float array;
  reduced_costs : float array;
}

type stop_reason = Iteration_limit | Deadline | Numeric of string

type stop = {
  reason : stop_reason;
  best_objective : float option;
  iterations : int;
}

type outcome = Optimal of solution | Infeasible | Unbounded | Stopped of stop

(* The column layout (structurals, one slack per inequality row, one
   artificial per row) is fixed by the row set alone, so a snapshot
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

(* [Float.max] without its signed-zero test, which costs two C calls
   whenever [b <= a]. It differs from [Float.max] only when [a] is -0.
   and [b] is +0.; every use below either takes the maximum against a
   positive constant or compares it with a positive threshold, where the
   sign of a zero cannot matter. NaN propagates as in [Float.max]. *)
let[@inline] fmax a b = if b > a then b else if a <> a || b <> b then nan else a

(* ---- Canonical rows: sorted, duplicates summed once (in the order
   given) and zeros dropped, so [(0,1.); (0,1.)] means 2 x0 whichever
   layer built the list. [compile] passes a row whose indices strictly
   ascend with no zero through as given, without this copy. ---- *)

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

let rec check_terms nv = function
  | [] -> ()
  | (j, c) :: rest ->
      if j < 0 || j >= nv then invalid_arg "Simplex: variable index out of range";
      if not (Float.is_finite c) then invalid_arg "Simplex: non-finite coefficient";
      check_terms nv rest

let rec check_bounds nv = function
  | [] -> ()
  | (j, l, h) :: rest ->
      if j < 0 || j >= nv then invalid_arg "Simplex: bound variable index out of range";
      if Float.is_nan l || Float.is_nan h then invalid_arg "Simplex: NaN bound";
      check_bounds nv rest

(* Dense [lo, hi] per structural variable from the problem's sparse
   boxes; the implicit x >= 0 domain is applied when a solve loads them. *)
let bounds_of_problem p =
  let lo = Array.make p.n_vars 0. and hi = Array.make p.n_vars infinity in
  List.iter
    (fun (j, l, h) ->
      lo.(j) <- Float.max lo.(j) l;
      hi.(j) <- Float.min hi.(j) h)
    p.var_bounds;
  (lo, hi)

let objective_vector p =
  let c = Array.make p.n_vars 0. in
  List.iter
    (fun (j, v) ->
      if j < 0 || j >= p.n_vars then invalid_arg "Simplex: variable index out of range";
      c.(j) <- c.(j) +. v)
    (canon_coeffs p.objective);
  c

(* ---- Work vector: dense storage plus the indices written since the
   last clear, in write order. Pattern tracking is write-based: an index
   counts as touched once written, even if cancellation later leaves an
   exact [0.] there; every kernel multiplies such an entry by zero or
   skips it. ---- *)

type work = {
  d : float array;
  pat : int array;  (* touched indices, first [npat] live *)
  mutable npat : int;
  mark : Bytes.t;  (* '\001' iff the index is in [pat] *)
}

let work_create n =
  let n = Stdlib.max 1 n in
  { d = Array.make n 0.; pat = Array.make n 0; npat = 0; mark = Bytes.make n '\000' }

let[@inline] touch x i =
  if Bytes.unsafe_get x.mark i = '\000' then begin
    Bytes.unsafe_set x.mark i '\001';
    Array.unsafe_set x.pat x.npat i;
    x.npat <- x.npat + 1
  end

let[@inline] wset x i v =
  Array.unsafe_set x.d i v;
  touch x i

let[@inline] wadd x i v =
  Array.unsafe_set x.d i (Array.unsafe_get x.d i +. v);
  touch x i

let wclear x =
  for k = 0 to x.npat - 1 do
    let i = Array.unsafe_get x.pat k in
    Array.unsafe_set x.d i 0.;
    Bytes.unsafe_set x.mark i '\000'
  done;
  x.npat <- 0

(* ---- Column-major programs: the input of {!of_columns} and the
   structural part of a compiled value. ---- *)

type columns = {
  row_ops : relop array;
  row_rhs : float array;
  col_start : int array;
  col_rows : int array;
  col_vals : float array;
}

(* ---- The compiled row set and its workspace. ---- *)

type vstat = Vbasic | Vlower | Vupper

(* Per-pivot scalars. An all-float record is stored flat, so writing a
   field boxes nothing. *)
type scal = { mutable enter_r : float; mutable step : float }

type compiled = {
  m : int;  (* constraint rows *)
  n : int;  (* total columns: structural + slack + artificial *)
  nv : int;  (* structural columns *)
  art_start : int;  (* first artificial column; artificials never enter *)
  colp : int array;  (* CSC of the structural columns *)
  rowi : int array;
  avals : float array;
  srow : int array;  (* slack and artificial column [nv + k]: its one row *)
  sval : float array;  (* ... and its coefficient; each solve stamps the
                          artificials' signs *)
  rhs : float array;
  ops : relop array;
  slack_col : int array;  (* -1 for Eq rows *)
  c1 : float array;  (* phase-1 costs: -1 on every artificial *)
  (* ---- workspace, reset by every solve ---- *)
  c2 : float array;  (* phase-2 costs, as a maximization *)
  lo : float array;  (* per-column bounds, length n *)
  hi : float array;
  basis : int array;  (* basic column of each row *)
  xb : float array;  (* value of each row's basic variable *)
  status : vstat array;  (* length n *)
  art_neg : bool array;  (* per row: artificial column carries -1 *)
  cols : int array;  (* refactorization order *)
  pivoted : bool array;
  rowbuf : float array;  (* residuals; row activities in the self-check *)
  rowmag : float array;  (* largest term per row in the self-check *)
  w : work;  (* FTRAN vector, pattern-tracked *)
  y : float array;  (* BTRAN pricing vector *)
  rho : float array;  (* BTRAN unit-row vector *)
  dw : float array;  (* devex reference weights, length n *)
  cand : int array;  (* candidate entering columns, capacity n *)
  cand_r : float array;  (* cached reduced costs, parallel to cand *)
  mutable ncand : int;
  mutable y_valid : bool;
  sc : scal;
  (* Product-form eta file. Eta [k] records one pivot on row [e_row.(k)]:
     FTRAN scales that slot by [1/e_diag.(k)] and subtracts the off-pivot
     column [e_idx/e_val.(e_ptr.(k) .. e_ptr.(k+1) - 1)]; BTRAN is the
     transposed update. B^-1 = E_k ... E_1 over the file in order. *)
  mutable e_row : int array;
  mutable e_diag : float array;
  mutable e_ptr : int array;
  mutable e_idx : int array;
  mutable e_val : float array;
  mutable e_len : int;
  mutable e_base : int;  (* file length right after the last refactorization *)
  mutable obs_time : bool;
  mutable ftran_ns : int;
  mutable btran_ns : int;
  mutable eta_entries : int;  (* total eta nnz appended, refactors included *)
  mutable refacts : int;
}

(* The rest of a compiled value once its structural columns are laid
   out: one slack singleton per inequality row and one artificial
   singleton per row, numbered in row order, and the workspace. Both
   entry points, {!compile} and {!of_columns}, end here. *)
let finish ~nv ~ops ~rhs ~colp ~rowi ~avals =
  let m = Array.length ops in
  let n_slack = Array.fold_left (fun k op -> if op = Eq then k else k + 1) 0 ops in
  let n = nv + n_slack + m in
  let art_start = nv + n_slack in
  (* Slack and artificial columns are singletons, kept beside the CSC
     arrays: a mid-size program's CSC then stays small enough for the
     minor heap. *)
  let srow = Array.make (Stdlib.max 1 (n - nv)) 0 in
  let sval = Array.make (Stdlib.max 1 (n - nv)) 1. in
  let slack_col = Array.make m (-1) in
  let next_slack = ref nv in
  for i = 0 to m - 1 do
    (match ops.(i) with
    | Le | Ge ->
        let k = !next_slack - nv in
        srow.(k) <- i;
        sval.(k) <- (if ops.(i) = Le then 1. else -1.);
        slack_col.(i) <- !next_slack;
        incr next_slack
    | Eq -> ());
    srow.(art_start + i - nv) <- i
  done;
  let c1 = Array.make (Stdlib.max 1 n) 0. in
  for j = art_start to n - 1 do
    c1.(j) <- -1.
  done;
  let m1 = Stdlib.max 1 m and n1 = Stdlib.max 1 n in
  (* the eta file starts small and grows on demand *)
  let etas = m1 + 16 in
  {
    m;
    n;
    nv;
    art_start;
    colp;
    rowi;
    avals;
    srow;
    sval;
    rhs;
    ops;
    slack_col;
    c1;
    c2 = Array.make n1 0.;
    lo = Array.make n1 0.;
    hi = Array.make n1 infinity;
    basis = Array.make m1 (-1);
    xb = Array.make m1 0.;
    status = Array.make n1 Vlower;
    art_neg = Array.make m1 false;
    cols = Array.make m 0;
    pivoted = Array.make m1 false;
    rowbuf = Array.make m1 0.;
    rowmag = Array.make m1 0.;
    w = work_create m;
    y = Array.make m1 0.;
    rho = Array.make m1 0.;
    dw = Array.make n1 1.;
    cand = Array.make n1 0;
    cand_r = Array.make n1 0.;
    ncand = 0;
    y_valid = false;
    sc = { enter_r = 0.; step = 0. };
    e_row = Array.make etas 0;
    e_diag = Array.make etas 1.;
    e_ptr = Array.make (etas + 1) 0;
    e_idx = Array.make (4 * m1) 0;
    e_val = Array.make (4 * m1) 0.;
    e_len = 0;
    e_base = 0;
    obs_time = false;
    ftran_ns = 0;
    btran_ns = 0;
    eta_entries = 0;
    refacts = 0;
  }

let compile p =
  let nv = p.n_vars in
  if nv < 0 then invalid_arg "Simplex: negative n_vars";
  check_terms nv p.objective;
  (* One pass over the rows: validate, canonicalize, and count each
     structural column's entries. *)
  let m = List.length p.constraints in
  let coeffs = Array.make m [] and rhs = Array.make m 0. and ops = Array.make m Eq in
  let counts = Array.make (nv + 1) 0 in
  let rec count d = function
    | [] -> ()
    | (j, _) :: rest ->
        counts.(j) <- counts.(j) + d;
        count d rest
  in
  (* validates and counts a row in one walk; true when it is canonical *)
  let rec scan prev canonical = function
    | [] -> canonical
    | (j, c) :: rest ->
        if j < 0 || j >= nv then invalid_arg "Simplex: variable index out of range";
        if not (Float.is_finite c) then invalid_arg "Simplex: non-finite coefficient";
        counts.(j) <- counts.(j) + 1;
        scan j (canonical && j > prev && c <> 0.) rest
  in
  List.iteri
    (fun i c ->
      let row =
        if scan min_int true c.coeffs then c.coeffs
        else begin
          let row = canon_coeffs c.coeffs in
          if row != c.coeffs then begin
            count (-1) c.coeffs;
            count 1 row
          end;
          row
        end
      in
      if not (Float.is_finite c.rhs) then invalid_arg "Simplex: non-finite rhs";
      coeffs.(i) <- row;
      rhs.(i) <- c.rhs;
      ops.(i) <- c.op)
    p.constraints;
  check_bounds nv p.var_bounds;
  let colp = Array.make (nv + 1) 0 in
  for j = 0 to nv - 1 do
    colp.(j + 1) <- colp.(j) + counts.(j)
  done;
  let nnz = colp.(nv) in
  let rowi = Array.make (Stdlib.max 1 nnz) 0 in
  let avals = Array.make (Stdlib.max 1 nnz) 0. in
  (* Rows are laid down in order, so each column lists its rows
     ascending. *)
  let cursor = Array.sub colp 0 (Stdlib.max 1 nv) in
  let rec put_row i = function
    | [] -> ()
    | (j, v) :: rest ->
        let s = cursor.(j) in
        rowi.(s) <- i;
        avals.(s) <- v;
        cursor.(j) <- s + 1;
        put_row i rest
  in
  for i = 0 to m - 1 do
    put_row i coeffs.(i)
  done;
  finish ~nv ~ops ~rhs ~colp ~rowi ~avals

let of_columns c =
  let nv = Array.length c.col_start - 1 and m = Array.length c.row_ops in
  if nv < 0 || c.col_start.(0) <> 0 then invalid_arg "Simplex: bad column starts";
  if Array.length c.row_rhs <> m then invalid_arg "Simplex: row_rhs must have one entry per row";
  Array.iter (fun b -> if not (Float.is_finite b) then invalid_arg "Simplex: non-finite rhs") c.row_rhs;
  let nnz = c.col_start.(nv) in
  if nnz > Array.length c.col_rows || nnz > Array.length c.col_vals then
    invalid_arg "Simplex: column arrays shorter than their starts";
  for j = 0 to nv - 1 do
    let s0 = c.col_start.(j) and s1 = c.col_start.(j + 1) in
    if s1 < s0 then invalid_arg "Simplex: bad column starts";
    for s = s0 to s1 - 1 do
      let i = c.col_rows.(s) and v = c.col_vals.(s) in
      if i < 0 || i >= m then invalid_arg "Simplex: row index out of range";
      if s > s0 && i <= c.col_rows.(s - 1) then invalid_arg "Simplex: column rows must ascend";
      (* [v -. v] is [0.] exactly when [v] is finite *)
      if v = 0. || v -. v <> 0. then invalid_arg "Simplex: zero or non-finite coefficient"
    done
  done;
  finish ~nv ~ops:c.row_ops ~rhs:c.row_rhs ~colp:c.col_start ~rowi:c.col_rows ~avals:c.col_vals

let prepend_row c ~coeffs op rhs =
  let nv = Array.length c.col_start - 1 in
  if Array.length coeffs > nv then invalid_arg "Simplex: more coefficients than columns";
  let lead j = j < Array.length coeffs && coeffs.(j) <> 0. in
  let added = ref 0 in
  for j = 0 to Array.length coeffs - 1 do
    if lead j then incr added
  done;
  let nnz = c.col_start.(nv) + !added in
  let col_start = Array.make (nv + 1) 0 in
  let col_rows = Array.make (Stdlib.max 1 nnz) 0 in
  let col_vals = Array.make (Stdlib.max 1 nnz) 0. in
  let d = ref 0 in
  for j = 0 to nv - 1 do
    if lead j then begin
      col_rows.(!d) <- 0;
      col_vals.(!d) <- coeffs.(j);
      incr d
    end;
    for s = c.col_start.(j) to c.col_start.(j + 1) - 1 do
      col_rows.(!d) <- c.col_rows.(s) + 1;
      col_vals.(!d) <- c.col_vals.(s);
      incr d
    done;
    col_start.(j + 1) <- !d
  done;
  let m = Array.length c.row_ops in
  let row_ops = Array.make (m + 1) op and row_rhs = Array.make (m + 1) rhs in
  Array.blit c.row_ops 0 row_ops 1 m;
  Array.blit c.row_rhs 0 row_rhs 1 m;
  { row_ops; row_rhs; col_start; col_rows; col_vals }

(* Load one solve's objective and boxes into the workspace and reset
   everything a previous solve left behind. Returns the objective's sign
   (phase 2 always maximizes [sign * c]). *)
let load t ~maximize ~objective ~bounds:(l, h) =
  let nv = t.nv in
  if Array.length objective <> nv then
    invalid_arg "Simplex: objective must have length n_vars";
  if Array.length l <> nv || Array.length h <> nv then
    invalid_arg "Simplex: bounds arrays must have length n_vars";
  let sign = if maximize then 1. else -1. in
  for j = 0 to nv - 1 do
    let v = objective.(j) in
    if not (Float.is_finite v) then invalid_arg "Simplex: non-finite coefficient";
    t.c2.(j) <- (if v <> 0. then sign *. v else 0.);
    t.lo.(j) <- fmax 0. l.(j);
    t.hi.(j) <- h.(j)
  done;
  for j = nv to t.n - 1 do
    t.lo.(j) <- 0.;
    t.hi.(j) <- infinity
  done;
  Array.fill t.status 0 t.n Vlower;
  Array.fill t.dw 0 t.n 1.;
  wclear t.w;
  t.ncand <- 0;
  t.y_valid <- false;
  t.e_len <- 0;
  t.e_base <- 0;
  t.obs_time <- Pc_obs.Registry.enabled ();
  t.ftran_ns <- 0;
  t.btran_ns <- 0;
  t.eta_entries <- 0;
  t.refacts <- 0;
  sign

let domain_empty t =
  let empty = ref false in
  for j = 0 to t.nv - 1 do
    if t.lo.(j) > t.hi.(j) then empty := true
  done;
  !empty

(* A column pinned to a single point can never move, so it can never be an
   entering candidate — in the primal (no improving step) or in the dual
   (no admissible direction). Excluding it is sound both ways. *)
let[@inline] fixed t j = t.hi.(j) -. t.lo.(j) <= tol

let[@inline] nb_value t j =
  match t.status.(j) with
  | Vlower -> t.lo.(j)
  | Vupper -> t.hi.(j)
  | Vbasic -> assert false

(* Objective of the current iterate in O(m + n): used for final and stop
   readouts. *)
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

(* ---- Kernels. ---- *)

(* a_j · x, the inner loop of pricing and of the pivot-row entries *)
let[@inline] col_dot t (x : float array) j =
  let acc = ref 0. in
  if j < t.nv then begin
    let avals = t.avals and rowi = t.rowi in
    for s = Array.unsafe_get t.colp j to Array.unsafe_get t.colp (j + 1) - 1 do
      acc := !acc +. Array.unsafe_get avals s *. Array.unsafe_get x (Array.unsafe_get rowi s)
    done
  end
  else begin
    let k = j - t.nv in
    acc := !acc +. Array.unsafe_get t.sval k *. Array.unsafe_get x (Array.unsafe_get t.srow k)
  end;
  !acc

(* x += v · a_j, marking the touched rows in column order *)
let[@inline] add_col t x j v =
  if j < t.nv then
    for s = t.colp.(j) to t.colp.(j + 1) - 1 do
      wadd x (Array.unsafe_get t.rowi s) (Array.unsafe_get t.avals s *. v)
    done
  else wadd x t.srow.(j - t.nv) (t.sval.(j - t.nv) *. v)

(* Reduced cost of column j under the pricing vector y: r_j = c_j - y·a_j.
   Positive means increasing x_j raises the (maximization) objective. *)
let[@inline] rcost t ~c j = c.(j) -. col_dot t t.y j

let now_ns () = Int64.to_int (Pc_util.Clock.now_ns ())

let ftran_apply t (x : work) =
  let t0 = if t.obs_time then now_ns () else 0 in
  let e_ptr = t.e_ptr and e_idx = t.e_idx and e_val = t.e_val in
  for k = 0 to t.e_len - 1 do
    let r = Array.unsafe_get t.e_row k in
    let xr = Array.unsafe_get x.d r in
    if xr <> 0. then begin
      let s = xr /. Array.unsafe_get t.e_diag k in
      wset x r s;
      for q = Array.unsafe_get e_ptr k to Array.unsafe_get e_ptr (k + 1) - 1 do
        wadd x (Array.unsafe_get e_idx q) (-.Array.unsafe_get e_val q *. s)
      done
    end
  done;
  if t.obs_time then t.ftran_ns <- t.ftran_ns + (now_ns () - t0)

let btran_apply t (x : float array) =
  let t0 = if t.obs_time then now_ns () else 0 in
  let e_ptr = t.e_ptr and e_idx = t.e_idx and e_val = t.e_val in
  for k = t.e_len - 1 downto 0 do
    let acc = ref 0. in
    for q = Array.unsafe_get e_ptr k to Array.unsafe_get e_ptr (k + 1) - 1 do
      acc := !acc +. Array.unsafe_get e_val q *. Array.unsafe_get x (Array.unsafe_get e_idx q)
    done;
    let r = Array.unsafe_get t.e_row k in
    Array.unsafe_set x r ((Array.unsafe_get x r -. !acc) /. Array.unsafe_get t.e_diag k)
  done;
  if t.obs_time then t.btran_ns <- t.btran_ns + (now_ns () - t0)

(* w := B^-1 a_j (pattern-tracked) *)
let load_ftran t j =
  let w = t.w in
  wclear w;
  add_col t w j 1.;
  ftran_apply t w

(* rho := B^-T e_row *)
let load_btran_row t row =
  Array.fill t.rho 0 t.m 0.;
  t.rho.(row) <- 1.;
  btran_apply t t.rho

(* y := B^-T c_B, recomputed only when the basis (or the phase objective)
   changed; bound flips leave it valid. Candidate reduced costs are
   cached alongside and refreshed with it. *)
let ensure_y t ~c =
  if not t.y_valid then begin
    Array.fill t.y 0 t.m 0.;
    for i = 0 to t.m - 1 do
      let cb = c.(t.basis.(i)) in
      if cb <> 0. then t.y.(i) <- cb
    done;
    btran_apply t t.y;
    for k = 0 to t.ncand - 1 do
      let j = t.cand.(k) in
      t.cand_r.(k) <- (if t.status.(j) = Vbasic then 0. else rcost t ~c j)
    done;
    t.y_valid <- true
  end

(* Room for one more eta of up to [extra] entries; the file only grows,
   and a compiled value keeps what it grew to. *)
let eta_reserve t extra =
  if t.e_len + 1 >= Array.length t.e_row then begin
    let cap = 2 * Array.length t.e_row in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.e_row <- grow t.e_row 0;
    t.e_diag <- grow t.e_diag 1.;
    let p = Array.make (cap + 1) 0 in
    Array.blit t.e_ptr 0 p 0 (Array.length t.e_ptr);
    t.e_ptr <- p
  end;
  let need = t.e_ptr.(t.e_len) + extra in
  if need > Array.length t.e_idx then begin
    let cap = Stdlib.max need (2 * Array.length t.e_idx) in
    let used = t.e_ptr.(t.e_len) in
    let idx = Array.make cap 0 and vals = Array.make cap 0. in
    Array.blit t.e_idx 0 idx 0 used;
    Array.blit t.e_val 0 vals 0 used;
    t.e_idx <- idx;
    t.e_val <- vals
  end

(* Append the eta of a pivot on [row] from the FTRAN'd column in w. *)
let append_eta t ~row =
  let w = t.w in
  eta_reserve t w.npat;
  let k = t.e_len in
  let start = t.e_ptr.(k) in
  let p = ref start in
  for q = 0 to w.npat - 1 do
    let i = Array.unsafe_get w.pat q in
    let v = Array.unsafe_get w.d i in
    if i <> row && v <> 0. then begin
      t.e_idx.(!p) <- i;
      t.e_val.(!p) <- v;
      incr p
    end
  done;
  t.e_row.(k) <- row;
  t.e_diag.(k) <- w.d.(row);
  t.e_ptr.(k + 1) <- !p;
  t.e_len <- k + 1;
  t.eta_entries <- t.eta_entries + (!p - start) + 1

(* ---- Refactorization: rebuild the eta file from the current basis
   column set. Columns are pivoted in ascending-nnz order (singleton
   slacks and artificials first), with the pivot row chosen by magnitude
   among rows not yet assigned — partial pivoting restricted to the
   unpivoted set. Row assignments may change; [xb] is recomputed from
   scratch afterwards, which is also the drift wash-out. *)

exception Numeric_exc of string

let refactorize t =
  let cols = t.cols in
  Array.blit t.basis 0 cols 0 t.m;
  Array.sort
    (fun a b ->
      let nnz j = if j < t.nv then t.colp.(j + 1) - t.colp.(j) else 1 in
      let na = nnz a and nb = nnz b in
      if na <> nb then Int.compare na nb else Int.compare a b)
    cols;
  t.e_len <- 0;
  t.e_base <- 0;
  Array.fill t.pivoted 0 t.m false;
  let w = t.w in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < t.m do
    let c = cols.(!k) in
    load_ftran t c;
    let best = ref (-1) and best_mag = ref 1e-9 in
    for q = 0 to w.npat - 1 do
      let i = Array.unsafe_get w.pat q in
      if not t.pivoted.(i) then begin
        let mag = Float.abs (Array.unsafe_get w.d i) in
        if mag > !best_mag then begin
          best := i;
          best_mag := mag
        end
      end
    done;
    if !best = -1 then ok := false
    else begin
      let row = !best in
      t.pivoted.(row) <- true;
      t.basis.(row) <- c;
      append_eta t ~row
    end;
    incr k
  done;
  wclear w;
  if not !ok then raise (Numeric_exc "singular basis on refactorization");
  t.e_base <- t.e_len;
  t.refacts <- t.refacts + 1;
  (* xb := B^-1 (b - Σ_nonbasic a_j v_j), fresh *)
  for i = 0 to t.m - 1 do
    wset w i t.rhs.(i)
  done;
  for j = 0 to t.n - 1 do
    if t.status.(j) <> Vbasic then begin
      let v = nb_value t j in
      if v <> 0. then add_col t w j (-.v)
    end
  done;
  ftran_apply t w;
  for i = 0 to t.m - 1 do
    t.xb.(i) <- w.d.(i)
  done;
  wclear w;
  t.y_valid <- false

(* [refactorize] for the cold start's basis, which is all slack and
   artificial singletons and needs no FTRAN: one diagonal eta per row,
   in the ascending column order [refactorize] sorts them into (slack
   columns, then artificials, each ascending with its row), and xb the
   diagonal solve of the residuals [resid] = b - Σ a_j lo_j, which the
   caller computed term for term as [refactorize] would. Leaves the same
   etas, basic values and counters. *)
let factor_singletons t ~resid =
  t.e_len <- 0;
  let diag i = t.sval.(t.basis.(i) - t.nv) in
  let put i =
    eta_reserve t 0;
    let k = t.e_len in
    t.e_row.(k) <- i;
    t.e_diag.(k) <- diag i;
    t.e_ptr.(k + 1) <- t.e_ptr.(k);
    t.e_len <- k + 1
  in
  for i = 0 to t.m - 1 do
    if t.basis.(i) < t.art_start then put i
  done;
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= t.art_start then put i
  done;
  t.e_base <- t.e_len;
  t.eta_entries <- t.eta_entries + t.m;
  t.refacts <- t.refacts + 1;
  for i = 0 to t.m - 1 do
    let r = resid.(i) in
    t.xb.(i) <- (if r <> 0. then r /. diag i else r)
  done;
  t.y_valid <- false

let maybe_refactor t =
  if t.e_len - t.e_base >= refactor_interval then refactorize t

(* ---- Pricing: devex over a maintained candidate list. ---- *)

let candidate_cap t = Stdlib.max 64 (Stdlib.min 1024 (t.n / 8))

let[@inline] viol_of t j r =
  match t.status.(j) with
  | Vlower -> r
  | Vupper -> -.r
  | Vbasic -> neg_infinity

let[@inline] eligible t j = j < t.art_start && (not (fixed t j)) && t.status.(j) <> Vbasic

let[@inline] score t j r = r *. r /. t.dw.(j)

(* Full-price every column and rebuild the candidate list from the
   violating ones, in ascending column order, keeping the largest devex
   scores when there are more than the cap. Returns the best entering
   column (its reduced cost in [sc.enter_r]), or -1 at optimality. *)
let refresh_candidates t ~c =
  let cap = candidate_cap t in
  let found = ref 0 in
  for j = 0 to t.n - 1 do
    if eligible t j then begin
      let r = rcost t ~c j in
      if viol_of t j r > tol then begin
        t.cand.(!found) <- j;
        t.cand_r.(!found) <- r;
        incr found
      end
    end
  done;
  let nfound = !found in
  if nfound > cap then begin
    let arr = Array.init nfound (fun k -> (t.cand.(k), t.cand_r.(k))) in
    Array.sort (fun (ja, ra) (jb, rb) -> Float.compare (score t jb rb) (score t ja ra)) arr;
    for k = 0 to cap - 1 do
      let j, r = arr.(k) in
      t.cand.(k) <- j;
      t.cand_r.(k) <- r
    done
  end;
  let keep = Stdlib.min cap nfound in
  let best = ref (-1) and best_r = ref 0. and best_score = ref neg_infinity in
  for k = 0 to keep - 1 do
    let j = t.cand.(k) and r = t.cand_r.(k) in
    let s = score t j r in
    if s > !best_score then begin
      best := j;
      best_r := r;
      best_score := s
    end
  done;
  t.ncand <- keep;
  t.sc.enter_r <- !best_r;
  !best

(* Entering column, or -1 at optimality; its reduced cost goes to
   [sc.enter_r]. Devex path: scan the candidate list with cached reduced
   costs; fall back to a full re-price when it runs dry. Bland path:
   lowest-index violating column over a full scan — the termination
   guarantee after a stall. *)
let entering t ~c ~bland =
  ensure_y t ~c;
  if bland then begin
    let best = ref (-1) in
    let j = ref 0 in
    while !best < 0 && !j < t.n do
      (if eligible t !j then
         let r = rcost t ~c !j in
         if viol_of t !j r > tol then begin
           best := !j;
           t.sc.enter_r <- r
         end);
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
          let s = score t j r in
          if s > !best_score then begin
            best := j;
            best_r := r;
            best_score := s
          end
        end
      end
    done;
    if !best >= 0 then begin
      t.sc.enter_r <- !best_r;
      !best
    end
    else refresh_candidates t ~c
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
      let alpha = col_dot t t.rho j in
      if alpha <> 0. then begin
        let cand_w = alpha *. alpha /. piv2 *. wq in
        if cand_w > t.dw.(j) then t.dw.(j) <- cand_w
      end;
      if t.dw.(j) > !maxw then maxw := t.dw.(j)
    end
  done;
  let leaving = t.basis.(row) in
  t.dw.(leaving) <- fmax 1. (wq /. piv2);
  if fmax !maxw t.dw.(leaving) > 1e8 then Array.fill t.dw 0 t.n 1.

(* xb -= w · step over w's pattern *)
let move_basics t step =
  let w = t.w in
  for q = 0 to w.npat - 1 do
    let i = Array.unsafe_get w.pat q in
    t.xb.(i) <- t.xb.(i) -. (Array.unsafe_get w.d i *. step)
  done

(* One bounded-variable primal step on entering column [col]: the step
   length is limited by the entering variable's own opposite bound (a
   pure bound flip, no basis change) or by the first basic variable to
   hit one of its bounds (a regular exchange). Ties between rows break
   toward the smallest basic index, which combines well with Bland's
   rule. Leaves the signed step in [sc.step] (the entering reduced cost
   moves the objective by [enter_r *. step]). *)
let primal_step t ~col =
  let d =
    match t.status.(col) with
    | Vlower -> 1.
    | Vupper -> -1.
    | Vbasic -> assert false
  in
  load_ftran t col;
  let w = t.w in
  let best_row = ref (-1) in
  let best_t = ref (t.hi.(col) -. t.lo.(col)) in
  let leave_at_upper = ref false in
  for q = 0 to w.npat - 1 do
    let i = Array.unsafe_get w.pat q in
    let rate = -.(d *. Array.unsafe_get w.d i) in
    let ratio = ref nan and at_upper = ref false in
    if rate > tol then begin
      let head = t.hi.(t.basis.(i)) -. t.xb.(i) in
      if Float.is_finite head then begin
        ratio := fmax 0. (head /. rate);
        at_upper := true
      end
    end
    else if rate < -.tol then begin
      let head = t.xb.(i) -. t.lo.(t.basis.(i)) in
      ratio := fmax 0. (head /. -.rate)
    end;
    let ratio = !ratio in
    if
      (not (Float.is_nan ratio))
      && (ratio < !best_t -. tol
         || (Float.abs (ratio -. !best_t) <= tol
            && !best_row >= 0
            && t.basis.(i) < t.basis.(!best_row)))
    then begin
      best_row := i;
      best_t := ratio;
      leave_at_upper := !at_upper
    end
  done;
  if not (Float.is_finite !best_t) then raise Unbounded_exc;
  let step = d *. !best_t in
  if !best_row = -1 then begin
    move_basics t step;
    t.status.(col) <-
      (match t.status.(col) with
      | Vlower -> Vupper
      | Vupper -> Vlower
      | Vbasic -> assert false)
  end
  else begin
    let row = !best_row in
    let enter_val = nb_value t col +. step in
    move_basics t step;
    let leaving = t.basis.(row) in
    t.status.(leaving) <- (if !leave_at_upper then Vupper else Vlower);
    t.status.(col) <- Vbasic;
    t.basis.(row) <- col;
    t.xb.(row) <- enter_val;
    let piv = w.d.(row) in
    devex_update t ~row ~col ~piv;
    append_eta t ~row;
    t.y_valid <- false;
    maybe_refactor t
  end;
  t.sc.step <- step

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
    let col = entering t ~c ~bland in
    if col < 0 then continue_ := false
    else begin
      let r = t.sc.enter_r in
      primal_step t ~col;
      incr iters;
      (* objective moved by r·step; exact enough for stall detection,
         and the final objective is recomputed from scratch anyway *)
      if r *. t.sc.step > tol then stall := 0 else incr stall
    end
  done

let snap_of t ~art_neg =
  {
    s_nv = t.nv;
    s_m = t.m;
    s_basis = Array.sub t.basis 0 t.m;
    s_at_upper = Array.init t.n (fun j -> t.status.(j) = Vupper);
    s_art_neg = Array.sub art_neg 0 t.m;
  }

(* The optimal point, with the duals and reduced costs read off the final
   pricing vector y = B^-T c_B (valid at optimality: the last pricing
   pass found no entering column). Phase 2 maximizes [sign * c], so both
   are scaled back by [sign] into the caller's objective. *)
let extract_solution t ~sign =
  let c2 = t.c2 in
  ensure_y t ~c:c2;
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
  let duals = Array.make t.m 0. in
  for i = 0 to t.m - 1 do
    duals.(i) <- sign *. t.y.(i)
  done;
  let reduced_costs = Array.make t.nv 0. in
  for j = 0 to t.nv - 1 do
    if t.status.(j) <> Vbasic then reduced_costs.(j) <- sign *. rcost t ~c:c2 j
  done;
  { objective_value = sign *. objective_of t c2; values; duals; reduced_costs }

(* Post-solve self-check: residual feasibility of every constraint, each
   variable within its box, and objective consistency, with tolerances
   scaled by row magnitude — catches factorization drift before a wrong
   "optimal" answer escapes into a bound. Walks the structural CSC
   columns; each row's terms accumulate in ascending column order. *)
let check t ~sign (sol : solution) =
  let eps = 1e-6 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let values = sol.values in
  for j = 0 to Array.length values - 1 do
    let v = values.(j) in
    if not (Float.is_finite v) then fail (Printf.sprintf "variable %d is non-finite" j)
    else begin
      let slack = eps *. fmax 1. (Float.abs v) in
      if v < t.lo.(j) -. slack then
        fail (Printf.sprintf "variable %d below lower bound (%g < %g)" j v t.lo.(j))
      else if v > t.hi.(j) +. slack then
        fail (Printf.sprintf "variable %d above upper bound (%g > %g)" j v t.hi.(j))
    end
  done;
  let lhs = t.rowbuf and mag = t.rowmag in
  for i = 0 to t.m - 1 do
    lhs.(i) <- 0.;
    mag.(i) <- Float.abs t.rhs.(i)
  done;
  for j = 0 to t.nv - 1 do
    let x = values.(j) in
    for s = t.colp.(j) to t.colp.(j + 1) - 1 do
      let i = t.rowi.(s) in
      let term = t.avals.(s) *. x in
      lhs.(i) <- lhs.(i) +. term;
      mag.(i) <- fmax mag.(i) (Float.abs term)
    done
  done;
  for i = 0 to t.m - 1 do
    let lhs = lhs.(i) and rhs = t.rhs.(i) in
    let slack = fmax 1. mag.(i) *. eps in
    let ok =
      match t.ops.(i) with
      | Le -> lhs <= rhs +. slack
      | Ge -> lhs >= rhs -. slack
      | Eq -> Float.abs (lhs -. rhs) <= slack
    in
    if not ok then
      fail (Printf.sprintf "constraint %d residual: lhs %g vs rhs %g" i lhs rhs)
  done;
  let recomputed = ref 0. in
  for j = 0 to t.nv - 1 do
    let c = t.c2.(j) in
    if c <> 0. then recomputed := !recomputed +. (sign *. c *. values.(j))
  done;
  let recomputed = !recomputed in
  let mag = fmax 1. (Float.abs recomputed) in
  if Float.abs (recomputed -. sol.objective_value) > 1e-5 *. mag then
    fail
      (Printf.sprintf "objective drift: reported %g, recomputed %g"
         sol.objective_value recomputed);
  match !err with None -> Ok () | Some msg -> Error msg

let flush_factor_stats t =
  Counter.add c_refact t.refacts;
  Counter.add c_eta_len t.eta_entries;
  if t.obs_time then begin
    Counter.add c_ftran_ns t.ftran_ns;
    Counter.add c_btran_ns t.btran_ns
  end

(* ---- Cold two-phase solve from a loaded workspace. Returns the outcome
   and, on Optimal, a basis snapshot. ---- *)
let cold_solve ?budget t ~sign =
  if domain_empty t then (Infeasible, None)
  else begin
    let m = t.m and nv = t.nv and art_start = t.art_start in
    (* Initial basis: structurals at their lower bounds; each row gets its
       slack when the residual sign permits, otherwise a residual-signed
       artificial whose sign is stamped into the CSC singleton. *)
    let resid = t.rowbuf in
    Array.blit t.rhs 0 resid 0 m;
    for j = 0 to nv - 1 do
      let l = t.lo.(j) in
      if l <> 0. then
        for s = t.colp.(j) to t.colp.(j + 1) - 1 do
          resid.(t.rowi.(s)) <- resid.(t.rowi.(s)) -. (t.avals.(s) *. l)
        done
    done;
    for i = 0 to m - 1 do
      let r = resid.(i) in
      let slack_fits =
        match t.ops.(i) with Le -> r >= 0. | Ge -> r <= 0. | Eq -> false
      in
      if slack_fits then begin
        t.art_neg.(i) <- false;
        t.basis.(i) <- t.slack_col.(i)
      end
      else begin
        t.art_neg.(i) <- (match t.ops.(i) with Le -> true | Ge -> false | Eq -> r < 0.);
        t.basis.(i) <- art_start + i
      end
    done;
    for i = 0 to m - 1 do
      t.sval.(art_start + i - nv) <- (if t.art_neg.(i) then -1. else 1.)
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
        factor_singletons t ~resid;
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
          (* Artificials may leave the basis but never re-enter: once
             phase 1 drives one to zero it stays there, and if the
             problem is feasible a point with every artificial at zero
             exists, so the restriction cannot produce a false
             Infeasible. *)
          try optimize ?budget ~iters ~bland_acts ~c:t.c1 t with
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
                     let alpha = col_dot t t.rho !j in
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
                  append_eta t ~row:i;
                  t.y_valid <- false;
                  maybe_refactor t
                end
                (* else: redundant row, harmless to keep with the
                   artificial at 0 *)
              end
            done;
            for j = art_start to t.n - 1 do
              t.lo.(j) <- 0.;
              t.hi.(j) <- 0.
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
                Array.fill t.dw 0 t.n 1.;
                match optimize ?budget ~iters ~bland_acts ~c:t.c2 t with
                | exception Unbounded_exc -> (Unbounded, None)
                | exception Stop_exc reason ->
                    (* The iterate is primal-feasible throughout phase 2,
                       so the current objective is the value of a genuine
                       feasible point (a primal bound), reported as the
                       best-so-far. *)
                    ( stopped reason
                        ~best_objective:(Some (sign *. objective_of t t.c2)),
                      None )
                | () -> (
                    let sol = extract_solution t ~sign in
                    match check t ~sign sol with
                    | Ok () -> (Optimal sol, Some (snap_of t ~art_neg:t.art_neg))
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
      | Numeric_exc msg -> (stopped (Numeric msg) ~best_objective:None, None)
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

let warm_solve ?budget t ~sign ~snapshot =
  let m = t.m and n = t.n in
  if snapshot.s_nv <> t.nv || snapshot.s_m <> m
     || Array.length snapshot.s_at_upper <> n
  then None (* shape mismatch: the snapshot is from another row set *)
  else if domain_empty t then Some (Infeasible, None)
  else begin
    let iters = ref 0 in
    let dual_pivs = ref 0 in
    let bland_acts = ref 0 in
    let c2 = t.c2 in
    let flush () =
      Counter.add c_pivots !iters;
      Counter.add c_dual_pivots !dual_pivs;
      Counter.add c_bland !bland_acts;
      flush_factor_stats t
    in
    try
      for i = 0 to m - 1 do
        let ac = t.art_start + i in
        t.sval.(ac - t.nv) <- (if snapshot.s_art_neg.(i) then -1. else 1.);
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
      (* Factorize the snapshot basis. A singular set means the basis is
         unusable here: fall back. This also computes xb under the new
         bounds. *)
      refactorize t;
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
                move_basics t d;
                t.status.(j) <- Vupper
              end
              else raise (Fallback "dual-infeasible restored statuses")
          | Vupper when r < -.tol ->
              let d = t.lo.(j) -. t.hi.(j) in
              load_ftran t j;
              move_basics t d;
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
             let v = fmax (t.lo.(b) -. t.xb.(i)) (t.xb.(i) -. t.hi.(b)) in
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
                 let alpha = col_dot t t.rho j in
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
               let piv = t.w.d.(row) in
               let piv = if piv = 0. then !best_alpha else piv in
               let delta = (t.xb.(row) -. target) /. piv in
               let enter_val = nb_value t col +. delta in
               let w = t.w in
               for q = 0 to w.npat - 1 do
                 let i = Array.unsafe_get w.pat q in
                 if i <> row then
                   t.xb.(i) <- t.xb.(i) -. (Array.unsafe_get w.d i *. delta)
               done;
               t.status.(b) <- (if below then Vlower else Vupper);
               t.status.(col) <- Vbasic;
               t.basis.(row) <- col;
               t.xb.(row) <- enter_val;
               append_eta t ~row;
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
                  let sol = extract_solution t ~sign in
                  match check t ~sign sol with
                  | Ok () ->
                      (Optimal sol, Some (snap_of t ~art_neg:snapshot.s_art_neg))
                  | Error msg -> raise (Fallback msg))
            end
      in
      Counter.incr c_solves;
      flush ();
      Some result
    with Fallback _ | Numeric_exc _ ->
      flush ();
      None
  end

(* ---- Entry points. ---- *)

let run ?budget t ~maximize ~objective ~bounds =
  let sign = load t ~maximize ~objective ~bounds in
  cold_solve ?budget t ~sign

let run_from ?budget t ~snapshot ~maximize ~objective ~bounds =
  let sign = load t ~maximize ~objective ~bounds in
  Counter.incr c_warm;
  (* Fault injection: distrust the warm basis outright, as a failed
     post-solve self-check would, and take the cold fallback. The
     fallback is the soundness story for every real numeric doubt, so
     chaos runs exercise precisely the path they must prove. *)
  let doubt =
    Pc_fault.Fault.enabled () && Pc_fault.Fault.fire Pc_fault.Fault.Lp_doubt
  in
  match (if doubt then None else warm_solve ?budget t ~sign ~snapshot) with
  | Some result -> result
  | None ->
      Counter.incr c_warm_fb;
      run ?budget t ~maximize ~objective ~bounds

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

let observing () = Pc_obs.Trace.enabled () || Pc_obs.Registry.enabled ()

let solve_compiled ?budget t ~maximize ~objective ~bounds =
  if observing () then observed (fun () -> run ?budget t ~maximize ~objective ~bounds)
  else run ?budget t ~maximize ~objective ~bounds

let solve_compiled_from ?budget t ~snapshot ~maximize ~objective ~bounds =
  if observing () then
    observed (fun () -> run_from ?budget t ~snapshot ~maximize ~objective ~bounds)
  else run_from ?budget t ~snapshot ~maximize ~objective ~bounds

let solve ?budget p =
  fst
    (solve_compiled ?budget (compile p) ~maximize:p.maximize
       ~objective:(objective_vector p) ~bounds:(bounds_of_problem p))

let check_solution p sol =
  let t = compile p in
  let sign =
    load t ~maximize:p.maximize ~objective:(objective_vector p)
      ~bounds:(bounds_of_problem p)
  in
  check t ~sign sol

module For_tests = struct
  type layout = {
    structural : columns;
    single_rows : int array;
    single_vals : float array;
    slack_cols : int array;
  }

  let layout t =
    {
      structural = { row_ops = t.ops; row_rhs = t.rhs; col_start = t.colp; col_rows = t.rowi; col_vals = t.avals };
      single_rows = t.srow;
      single_vals = t.sval;
      slack_cols = t.slack_col;
    }
end
