open Pc_lp
module S = Simplex

let tc = Alcotest.test_case
let check_float = Alcotest.(check (float 1e-5))

let get_opt = function
  | S.Optimal s -> s
  | S.Infeasible -> Alcotest.fail "unexpected infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected unbounded"
  | S.Stopped _ -> Alcotest.fail "unexpected early stop"

let test_basic_max () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12 *)
  let p =
    {
      S.n_vars = 2;
      maximize = true;
      objective = [ (0, 3.); (1, 2.) ];
      constraints = [ S.c_le [ (0, 1.); (1, 1.) ] 4.; S.c_le [ (0, 1.); (1, 3.) ] 6. ];
      var_bounds = [];
    }
  in
  let s = get_opt (S.solve p) in
  check_float "objective" 12. s.S.objective_value;
  check_float "x" 4. s.S.values.(0);
  check_float "y" 0. s.S.values.(1)

let test_basic_min () =
  (* min x + y s.t. x + 2y >= 6, 3x + y >= 9  -> intersection (2.4, 1.8), obj 4.2 *)
  let p =
    {
      S.n_vars = 2;
      maximize = false;
      objective = [ (0, 1.); (1, 1.) ];
      constraints = [ S.c_ge [ (0, 1.); (1, 2.) ] 6.; S.c_ge [ (0, 3.); (1, 1.) ] 9. ];
      var_bounds = [];
    }
  in
  let s = get_opt (S.solve p) in
  check_float "objective" 4.2 s.S.objective_value

let test_equality () =
  (* max x s.t. x + y = 5, x <= 3 -> x=3 *)
  let p =
    {
      S.n_vars = 2;
      maximize = true;
      objective = [ (0, 1.) ];
      constraints = [ S.c_eq [ (0, 1.); (1, 1.) ] 5.; S.c_le [ (0, 1.) ] 3. ];
      var_bounds = [];
    }
  in
  let s = get_opt (S.solve p) in
  check_float "x" 3. s.S.values.(0);
  check_float "y" 2. s.S.values.(1)

let test_infeasible () =
  let p =
    {
      S.n_vars = 1;
      maximize = true;
      objective = [ (0, 1.) ];
      constraints = [ S.c_ge [ (0, 1.) ] 5.; S.c_le [ (0, 1.) ] 3. ];
      var_bounds = [];
    }
  in
  match S.solve p with
  | S.Infeasible -> ()
  | S.Optimal _ | S.Unbounded | S.Stopped _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p =
    { S.n_vars = 1; maximize = true; objective = [ (0, 1.) ]; constraints = []; var_bounds = [] }
  in
  match S.solve p with
  | S.Unbounded -> ()
  | S.Optimal _ | S.Infeasible | S.Stopped _ ->
      Alcotest.fail "expected unbounded"

let test_negative_rhs () =
  (* constraint with negative rhs exercises row normalization:
     max x s.t. -x <= -2 (i.e. x >= 2), x <= 5 *)
  let p =
    {
      S.n_vars = 1;
      maximize = true;
      objective = [ (0, 1.) ];
      constraints = [ S.c_le [ (0, -1.) ] (-2.); S.c_le [ (0, 1.) ] 5. ];
      var_bounds = [];
    }
  in
  let s = get_opt (S.solve p) in
  check_float "x" 5. s.S.values.(0);
  (* and minimization hits the lower side *)
  let s2 = get_opt (S.solve { p with maximize = false }) in
  check_float "min x" 2. s2.S.values.(0)

let test_degenerate () =
  (* redundant constraints and degenerate vertices should not cycle *)
  let p =
    {
      S.n_vars = 2;
      maximize = true;
      objective = [ (0, 1.); (1, 1.) ];
      constraints =
        [
          S.c_le [ (0, 1.) ] 1.;
          S.c_le [ (0, 1.) ] 1.;
          S.c_le [ (1, 1.) ] 1.;
          S.c_le [ (0, 1.); (1, 1.) ] 2.;
          S.c_eq [ (0, 1.); (1, 1.) ] 2.;
        ];
      var_bounds = [];
    }
  in
  let s = get_opt (S.solve p) in
  check_float "objective" 2. s.S.objective_value

let test_pc_shaped () =
  (* The MILP-relaxation shape used by the PC framework: interval row
     constraints over 0/1 coefficients.
     Paper's worked example (Section 4.4, overlapping case):
     cells c1 (covered by t1,t2) and c2 (covered by t2 only);
     t1: 50 <= x1 <= 100, t2: 75 <= x1 + x2 <= 125;
     max 129.99 x1 + 149.99 x2 = 50*129.99 + 75*149.99 = 17748.75 *)
  let cons =
    [
      S.c_ge [ (0, 1.) ] 50.;
      S.c_le [ (0, 1.) ] 100.;
      S.c_ge [ (0, 1.); (1, 1.) ] 75.;
      S.c_le [ (0, 1.); (1, 1.) ] 125.;
    ]
  in
  let p =
    {
      S.n_vars = 2;
      maximize = true;
      objective = [ (0, 129.99); (1, 149.99) ];
      constraints = cons;
      var_bounds = [];
    }
  in
  let s = get_opt (S.solve p) in
  check_float "paper upper bound" 17748.75 s.S.objective_value;
  let p_min =
    { p with maximize = false; objective = [ (0, 0.99); (1, 0.99) ] }
  in
  let s_min = get_opt (S.solve p_min) in
  check_float "paper lower bound" 74.25 s_min.S.objective_value

let test_validation () =
  Alcotest.check_raises "bad index"
    (Invalid_argument "Simplex: variable index out of range") (fun () ->
      ignore
        (S.solve
           { S.n_vars = 1; maximize = true; objective = [ (3, 1.) ]; constraints = []; var_bounds = [] }))

(* --- randomized cross-check against brute-force vertex enumeration on a
   grid: for small problems with x in {0..6}^2 and <= constraints with
   non-negative coefficients, LP optimum must dominate every feasible
   integer point and be attained within the (continuous) polytope. --- *)

let random_problem rng =
  let module R = Pc_util.Rng in
  let n_cons = 1 + R.int rng 3 in
  let constraints =
    List.init n_cons (fun _ ->
        let c0 = float_of_int (R.int rng 4) and c1 = float_of_int (R.int rng 4) in
        let rhs = float_of_int (1 + R.int rng 12) in
        S.c_le [ (0, c0); (1, c1) ] rhs)
  in
  let objective = [ (0, float_of_int (R.int rng 5)); (1, float_of_int (R.int rng 5)) ] in
  { S.n_vars = 2; maximize = true; objective; constraints; var_bounds = [] }

let prop_dominates_grid =
  QCheck.Test.make ~name:"LP optimum dominates all feasible grid points" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let p = random_problem rng in
      match S.solve p with
      | S.Unbounded -> true
      | S.Infeasible -> false (* x=0 is always feasible for <= with rhs>0 *)
      | S.Stopped _ -> false (* tiny problems must solve to optimality *)
      | S.Optimal s ->
          let obj x y =
            List.fold_left
              (fun acc (j, c) -> acc +. (c *. if j = 0 then x else y))
              0. p.S.objective
          in
          let feasible x y =
            List.for_all
              (fun (c : S.constr) ->
                let lhs =
                  List.fold_left
                    (fun acc (j, v) -> acc +. (v *. if j = 0 then x else y))
                    0. c.S.coeffs
                in
                lhs <= c.S.rhs +. 1e-9)
              p.S.constraints
          in
          let ok = ref true in
          for i = 0 to 12 do
            for j = 0 to 12 do
              let x = float_of_int i and y = float_of_int j in
              if feasible x y && obj x y > s.S.objective_value +. 1e-5 then
                ok := false
            done
          done;
          (* solution itself must be feasible *)
          !ok && feasible s.S.values.(0) s.S.values.(1))

(* --- post-solve self-check property: every Optimal solution satisfies
   all constraints within Float_eps tolerances, and its objective value
   matches an independent recomputation from [values]. Uses richer random
   problems than the grid cross-check (all three relops, negative
   coefficients) so equality/>= rows exercise phase 1. --- *)

let random_mixed_problem rng =
  let module R = Pc_util.Rng in
  let n_vars = 2 + R.int rng 3 in
  let n_cons = 1 + R.int rng 5 in
  let sparse_row () =
    List.init n_vars (fun j -> (j, float_of_int (R.int rng 9 - 3)))
    |> List.filter (fun (_, c) -> c <> 0.)
  in
  let constraints =
    List.init n_cons (fun _ ->
        let coeffs = sparse_row () in
        let rhs = float_of_int (R.int rng 25 - 5) in
        match R.int rng 4 with
        | 0 -> S.c_ge coeffs rhs
        | 1 -> S.c_eq coeffs rhs
        | _ -> S.c_le coeffs rhs)
  in
  {
    S.n_vars;
    maximize = R.int rng 2 = 0;
    objective = sparse_row ();
    constraints;
    var_bounds = [];
  }

let prop_solution_self_check =
  QCheck.Test.make
    ~name:"optimal solutions pass the post-solve self-check" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let p = random_mixed_problem rng in
      match S.solve p with
      | S.Infeasible | S.Unbounded | S.Stopped _ -> true
      | S.Optimal s -> (
          (* the library's own check must agree... *)
          match S.check_solution p s with
          | Error _ -> false
          | Ok () ->
              (* ...and so must a from-scratch recomputation *)
              let value_of j = s.S.values.(j) in
              let row coeffs =
                List.fold_left (fun acc (j, c) -> acc +. (c *. value_of j)) 0. coeffs
              in
              let eps = 1e-6 in
              List.for_all
                (fun (c : S.constr) ->
                  let lhs = row c.S.coeffs in
                  let tol =
                    eps
                    *. Float.max 1.
                         (List.fold_left
                            (fun acc (_, v) -> acc +. Float.abs v)
                            (Float.abs c.S.rhs) c.S.coeffs)
                  in
                  match c.S.op with
                  | S.Le -> lhs <= c.S.rhs +. tol
                  | S.Ge -> lhs >= c.S.rhs -. tol
                  | S.Eq -> Float.abs (lhs -. c.S.rhs) <= tol)
                p.S.constraints
              && Array.for_all (fun x -> x >= -.eps) s.S.values
              && Float.abs (row p.S.objective -. s.S.objective_value)
                 <= eps *. Float.max 1. (Float.abs s.S.objective_value)))

(* --- duplicate variable indices are canonicalized (summed once) --- *)

let test_duplicate_indices () =
  (* [(0,1.);(0,1.)] must mean 2 x0, in rows and in the objective *)
  let p =
    {
      S.n_vars = 1;
      maximize = true;
      objective = [ (0, 1.) ];
      constraints = [ S.c_le [ (0, 1.); (0, 1.) ] 1. ];
      var_bounds = [];
    }
  in
  let s = get_opt (S.solve p) in
  check_float "2 x0 <= 1 caps x0 at 0.5" 0.5 s.S.values.(0);
  let reference =
    get_opt (S.solve { p with constraints = [ S.c_le [ (0, 2.) ] 1. ] })
  in
  check_float "identical to the pre-summed row" reference.S.values.(0)
    s.S.values.(0);
  let dup_obj =
    get_opt (S.solve { p with objective = [ (0, 1.); (0, 1.) ] })
  in
  check_float "objective duplicates also sum" 1. dup_obj.S.objective_value

(* --- explicit variable bounds --- *)

let test_var_bounds () =
  (* max x + y s.t. x + y <= 4 with x in [1,3], y in [0,2] *)
  let p =
    {
      S.n_vars = 2;
      maximize = true;
      objective = [ (0, 1.); (1, 1.) ];
      constraints = [ S.c_le [ (0, 1.); (1, 1.) ] 4. ];
      var_bounds = [ (0, 1., 3.); (1, 0., 2.) ];
    }
  in
  let s = get_opt (S.solve p) in
  check_float "objective" 4. s.S.objective_value;
  Alcotest.(check bool) "x within box" true
    (s.S.values.(0) >= 1. -. 1e-9 && s.S.values.(0) <= 3. +. 1e-9);
  (* minimization rests on the lower bounds *)
  let s_min = get_opt (S.solve { p with maximize = false }) in
  check_float "min objective" 1. s_min.S.objective_value;
  check_float "x at its lower bound" 1. s_min.S.values.(0);
  (* bounds alone make an otherwise unbounded problem finite *)
  let free =
    {
      S.n_vars = 1;
      maximize = true;
      objective = [ (0, 1.) ];
      constraints = [];
      var_bounds = [ (0, 0., 7.) ];
    }
  in
  check_float "upper bound caps the optimum" 7.
    (get_opt (S.solve free)).S.objective_value;
  (* a fixed variable (lo = hi) is honored exactly *)
  let fixed = { free with var_bounds = [ (0, 3., 3.) ] } in
  check_float "fixed variable" 3. (get_opt (S.solve fixed)).S.values.(0)

let test_empty_box_infeasible () =
  (* lo > hi is Infeasible, not an error; repeated entries intersect *)
  let p =
    {
      S.n_vars = 1;
      maximize = true;
      objective = [ (0, 1.) ];
      constraints = [];
      var_bounds = [ (0, 2., 5.); (0, 0., 1.) ];
    }
  in
  match S.solve p with
  | S.Infeasible -> ()
  | S.Optimal _ | S.Unbounded | S.Stopped _ ->
      Alcotest.fail "expected Infeasible on an empty box"

(* --- warm starts: a warm solve matches a cold one under the new box --- *)

let chain_problem =
  {
    S.n_vars = 3;
    maximize = true;
    objective = [ (0, 5.); (1, 4.); (2, 3.) ];
    constraints =
      [
        S.c_le [ (0, 2.); (1, 3.); (2, 1.) ] 5.;
        S.c_le [ (0, 4.); (1, 1.); (2, 2.) ] 11.;
        S.c_le [ (0, 3.); (1, 4.); (2, 2.) ] 8.;
      ];
    var_bounds = [];
  }

let test_warm_matches_cold () =
  let lp = S.compile chain_problem and objective = S.objective_vector chain_problem in
  let cold bounds = S.solve_compiled lp ~maximize:true ~objective ~bounds in
  let warm snapshot bounds =
    S.solve_compiled_from lp ~snapshot ~maximize:true ~objective ~bounds
  in
  let lo = [| 0.; 0.; 0. |] and hi = [| infinity; infinity; infinity |] in
  let snap =
    match cold (lo, hi) with
    | S.Optimal _, Some snap -> snap
    | _ -> Alcotest.fail "root solve failed"
  in
  (* tighten bounds one at a time, as branch-and-bound would *)
  let boxes =
    [
      ([| 0.; 0.; 0. |], [| 1.; infinity; infinity |]);
      ([| 2.; 0.; 0. |], [| infinity; infinity; infinity |]);
      ([| 0.; 1.; 0. |], [| infinity; 1.; 2. |]);
    ]
  in
  List.iter
    (fun (lo, hi) ->
      let warm, _ = warm snap (lo, hi) in
      let cold, _ = cold (lo, hi) in
      match (warm, cold) with
      | S.Optimal w, S.Optimal c ->
          check_float "warm = cold objective" c.S.objective_value
            w.S.objective_value
      | S.Infeasible, S.Infeasible -> ()
      | _ -> Alcotest.fail "warm and cold outcomes disagree")
    boxes;
  (* tightening into an empty feasible region is certified infeasible *)
  let warm_inf, _ = warm snap ([| 10.; 0.; 0. |], [| infinity; infinity; infinity |]) in
  match warm_inf with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible from the warm path"

(* --- warm-start reuse across a 10-step bound-tightening chain ---
   The streaming-ingestion pattern: the rows and objective never change,
   each step only pins variable boxes a little tighter, and every
   re-solve starts from the previous step's basis snapshot. The chain
   must (a) land on exactly the cold optimum at every step's box, and
   (b) cost far fewer pivots than re-solving cold each step. *)

let test_warm_chain_reuse () =
  Pc_obs.Registry.set_enabled true;
  let pivots_now () =
    let get k = Pc_obs.Registry.Counter.(get (make k)) in
    get "lp.pivots" + get "lp.dual_pivots" + get "lp.phase1_pivots"
  in
  let counting f =
    let before = pivots_now () in
    let r = f () in
    (r, pivots_now () - before)
  in
  let n = 40 and m = 30 and win = 10 in
  let p =
    {
      S.n_vars = n;
      maximize = true;
      objective = List.init n (fun i -> (i, 1. +. (float_of_int (i mod 7) *. 0.3)));
      constraints =
        List.init m (fun j ->
            S.c_le (List.init win (fun k -> ((j + k) mod n, 1.))) 25.);
      var_bounds = [];
    }
  in
  let lp = S.compile p and objective = S.objective_vector p in
  let lo = Array.make n 0. and hi = Array.make n 10. in
  let cold () =
    S.solve_compiled lp ~maximize:true ~objective ~bounds:(Array.copy lo, Array.copy hi)
  in
  let cold_at () =
    match cold () with
    | S.Optimal s, _ -> s
    | _ -> Alcotest.fail "cold solve failed"
  in
  let snap =
    ref
      (match cold () with
      | S.Optimal _, Some snap -> snap
      | _ -> Alcotest.fail "root solve failed")
  in
  let warm_pivots = ref 0 and cold_pivots = ref 0 and last_warm = ref nan in
  for step = 1 to 10 do
    for k = 0 to 3 do
      let j = ((4 * (step - 1)) + k) mod n in
      hi.(j) <- Float.max lo.(j) (hi.(j) -. 2.)
    done;
    let warm, dw =
      counting (fun () ->
          S.solve_compiled_from lp ~snapshot:!snap ~maximize:true ~objective
            ~bounds:(Array.copy lo, Array.copy hi))
    in
    (match warm with
    | S.Optimal s, Some snap' ->
        warm_pivots := !warm_pivots + dw;
        last_warm := s.S.objective_value;
        (* per-step: the warm answer is the cold answer at this box *)
        check_float
          (Printf.sprintf "step %d: warm = cold" step)
          (fst (counting cold_at)).S.objective_value s.S.objective_value;
        snap := snap'
    | _ -> Alcotest.failf "warm step %d failed" step);
    let _, dc = counting cold_at in
    cold_pivots := !cold_pivots + dc
  done;
  check_float "final warm = final cold" (cold_at ()).S.objective_value !last_warm;
  Alcotest.(check bool)
    (Printf.sprintf "10 warm steps cost %d pivots vs %d cold" !warm_pivots
       !cold_pivots)
    true
    (!warm_pivots * 2 < !cold_pivots)

let test_warm_shape_fallback () =
  (* a snapshot from a different problem shape must fall back to a cold
     solve — and still return the right answer *)
  let other =
    {
      S.n_vars = 2;
      maximize = true;
      objective = [ (0, 1.) ];
      constraints = [ S.c_le [ (0, 1.); (1, 1.) ] 2. ];
      var_bounds = [];
    }
  in
  let snap =
    match
      S.solve_compiled (S.compile other) ~maximize:true
        ~objective:(S.objective_vector other) ~bounds:(S.bounds_of_problem other)
    with
    | S.Optimal _, Some snap -> snap
    | _ -> Alcotest.fail "setup solve failed"
  in
  let module C = Pc_obs.Registry.Counter in
  let fb = C.make "lp.warm_fallbacks" in
  let before = C.get fb in
  let outcome, _ =
    S.solve_compiled_from (S.compile chain_problem) ~snapshot:snap ~maximize:true
      ~objective:(S.objective_vector chain_problem)
      ~bounds:([| 0.; 0.; 0. |], [| infinity; infinity; infinity |])
  in
  (match outcome with
  | S.Optimal s ->
      let cold = get_opt (S.solve chain_problem) in
      check_float "fallback matches cold" cold.S.objective_value
        s.S.objective_value
  | _ -> Alcotest.fail "expected Optimal via fallback");
  Alcotest.(check bool) "fallback was counted" true (C.get fb > before)

(* --- dense-tableau oracle: the revised simplex and the pre-rework dense
   implementation are independent codebases sharing only the problem
   types; random bounded LPs — including degenerate bases from duplicated
   rows, near-singular bases from eps-perturbed row copies, and chain
   instances long enough to force mid-solve refactorizations — must get
   the same verdict from both, and the same optimum when Optimal. --- *)

let random_oracle_problem rng =
  let module R = Pc_util.Rng in
  if R.int rng 8 = 0 then begin
    (* chain of equality rows, more than [refactor_interval] of them:
       phase 1 performs one basis exchange per row, so the eta file is
       guaranteed to cross the refactorization threshold mid-solve *)
    let m = S.refactor_interval + 8 + R.int rng 24 in
    let n_vars = m + 1 in
    let constraints =
      List.init m (fun i ->
          S.c_eq
            [ (i, 1.); (i + 1, float_of_int (1 + R.int rng 2)) ]
            (float_of_int (2 + R.int rng 5)))
    in
    {
      S.n_vars;
      maximize = true;
      objective = List.init n_vars (fun j -> (j, float_of_int (R.int rng 3)));
      constraints;
      var_bounds = List.init n_vars (fun j -> (j, 0., 10.));
    }
  end
  else begin
    let n_vars = 2 + R.int rng 4 in
    let n_cons = 1 + R.int rng 5 in
    let sparse_row () =
      List.init n_vars (fun j -> (j, float_of_int (R.int rng 9 - 3)))
      |> List.filter (fun (_, c) -> c <> 0.)
    in
    let base =
      List.init n_cons (fun _ ->
          let coeffs = sparse_row () in
          let rhs = float_of_int (R.int rng 25 - 5) in
          match R.int rng 4 with
          | 0 -> S.c_ge coeffs rhs
          | 1 -> S.c_eq coeffs rhs
          | _ -> S.c_le coeffs rhs)
    in
    let constraints =
      match (base, R.int rng 3) with
      | c :: _, 0 ->
          (* exact duplicate row: degenerate vertices, ratio-test ties *)
          base @ [ c ]
      | c :: _, 1 ->
          (* near-copy: almost linearly dependent rows, so a basis
             holding both is near-singular — the refactorization
             pivot-magnitude guard's territory *)
          let nudged =
            {
              c with
              S.coeffs = List.map (fun (j, v) -> (j, v +. 1e-9)) c.S.coeffs;
              rhs = c.S.rhs +. 1e-9;
            }
          in
          base @ [ nudged ]
      | _ -> base
    in
    {
      S.n_vars;
      maximize = R.int rng 2 = 0;
      objective = sparse_row ();
      (* boxed on both sides: bound flips on both solvers, no Unbounded *)
      var_bounds = List.init n_vars (fun j -> (j, 0., float_of_int (3 + R.int rng 8)));
      constraints;
    }
  end

let prop_oracle_dense_vs_sparse =
  QCheck.Test.make
    ~name:"revised simplex agrees with the dense-tableau oracle" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let p = random_oracle_problem rng in
      match (S.solve p, Dense_tableau.solve p) with
      | S.Optimal a, S.Optimal b ->
          Float.abs (a.S.objective_value -. b.S.objective_value)
          <= 1e-5 *. Float.max 1. (Float.abs b.S.objective_value)
      | S.Infeasible, S.Infeasible -> true
      | S.Unbounded, S.Unbounded -> true
      (* either side declining to answer (numeric distrust, caps) is not
         a disagreement — both solvers treat Stopped as "no verdict" *)
      | S.Stopped _, _ | _, S.Stopped _ -> true
      | _ -> false)

(* --- duals: at an optimum the exported duals and reduced costs certify
   the objective. With y the duals and d the reduced costs (both in the
   caller's objective), c·x = y·b + Σ d_j x_j, every nonbasic variable
   resting at a bound; and a maximization cannot gain by moving any
   variable off its bound: d_j <= 0 at a lower bound, d_j >= 0 at an upper
   bound, d_j = 0 strictly inside (signs flip when minimizing). --- *)

let dual_certificate_holds (p : S.problem) (s : S.solution) =
  let lo, hi = S.bounds_of_problem p in
  let rhs = Array.of_list (List.map (fun (c : S.constr) -> c.S.rhs) p.S.constraints) in
  let dual_obj = ref 0. in
  Array.iteri (fun i y -> dual_obj := !dual_obj +. (y *. rhs.(i))) s.S.duals;
  Array.iteri (fun j d -> dual_obj := !dual_obj +. (d *. s.S.values.(j))) s.S.reduced_costs;
  let sense = if p.S.maximize then 1. else -1. in
  let tol = 1e-6 in
  let sign_ok j d =
    let x = s.S.values.(j) and d = sense *. d in
    let at_lo = x <= lo.(j) +. 1e-9 and at_hi = x >= hi.(j) -. 1e-9 in
    if at_lo && at_hi then true
    else if at_lo then d <= tol
    else if at_hi then d >= -.tol
    else Float.abs d <= tol
  in
  Array.length s.S.duals = List.length p.S.constraints
  && Array.length s.S.reduced_costs = p.S.n_vars
  && Pc_util.Float_eps.approx_eq ~eps:1e-6 s.S.objective_value !dual_obj
  && Array.for_all Fun.id (Array.mapi sign_ok s.S.reduced_costs)

let prop_duals_certify =
  QCheck.Test.make ~name:"duals and reduced costs certify the optimum" ~count:300
    QCheck.small_int (fun seed ->
      List.for_all
        (fun p ->
          match S.solve p with
          | S.Optimal s -> dual_certificate_holds p s
          | S.Infeasible | S.Unbounded | S.Stopped _ -> true)
        [
          random_mixed_problem (Pc_util.Rng.create seed);
          random_oracle_problem (Pc_util.Rng.create seed);
        ])

(* --- workspace reuse: a compiled value owns its solver workspace, and
   every solve resets it. Solving one compiled value in sequence (max,
   min, max again, then a warm re-solve under a tightened box) must give
   outcomes and snapshots bit for bit equal to fresh compiles of the same
   problem: no state leaks from one solve into the next. --- *)

let bits_of_outcome = function
  | S.Optimal s ->
      let bits a = Array.map Int64.bits_of_float a in
      `Optimal
        ( Int64.bits_of_float s.S.objective_value,
          bits s.S.values,
          bits s.S.duals,
          bits s.S.reduced_costs )
  | S.Infeasible -> `Infeasible
  | S.Unbounded -> `Unbounded
  | S.Stopped st -> `Stopped st.S.iterations

let prop_workspace_reuse =
  QCheck.Test.make ~name:"a reused compiled value leaks no state between solves"
    ~count:300 QCheck.small_int (fun seed ->
      let p = random_oracle_problem (Pc_util.Rng.create seed) in
      let objective = S.objective_vector p and bounds = S.bounds_of_problem p in
      let shared = S.compile p in
      let cold lp maximize = S.solve_compiled lp ~maximize ~objective ~bounds in
      let fresh maximize = cold (S.compile p) maximize in
      let same (o1, s1) (o2, s2) = bits_of_outcome o1 = bits_of_outcome o2 && s1 = s2 in
      let o_max = cold shared true in
      let o_min = cold shared false in
      let o_again = cold shared true in
      let f_max = fresh true in
      same o_max f_max
      && same o_min (fresh false)
      && same o_again f_max
      &&
      match (o_again, f_max) with
      | (S.Optimal sol, Some snapshot), (_, Some fresh_snapshot) ->
          (* branch as the MILP would: cap the first variable below its
             optimal value *)
          let lo, hi = bounds in
          let hi = Array.copy hi in
          hi.(0) <- Float.max lo.(0) (Float.floor (sol.S.values.(0) -. 0.5));
          let warm lp snapshot =
            S.solve_compiled_from lp ~snapshot ~maximize:true ~objective ~bounds:(lo, hi)
          in
          same (warm shared snapshot) (warm (S.compile p) fresh_snapshot)
      | _ -> true)

(* --- allocation ceiling: one fixed 12-row × 40-column allocation
   program, shaped like the PC frequency programs (a <= and a >= row per
   PC over a window of cells). The kernels allocate nothing per pivot, so
   a solve allocates its results and little else; this pins that, so a
   change cannot quietly bring per-pivot allocation back. --- *)

let ceiling_problem =
  let cells = 40 in
  let rows =
    List.concat
      (List.init 6 (fun k ->
           let window =
             List.filter (fun j -> j < cells) (List.init 12 (fun i -> (6 * k) + i))
           in
           let coeffs = List.map (fun j -> (j, 1.)) window in
           [ S.c_le coeffs (float_of_int (20 + k)); S.c_ge coeffs (float_of_int (3 + k)) ]))
  in
  {
    S.n_vars = cells;
    maximize = true;
    objective = List.init cells (fun j -> (j, 1. +. (0.5 *. float_of_int (j mod 7))));
    constraints = rows;
    var_bounds = [];
  }

let test_allocation_ceiling () =
  let was = Pc_obs.Registry.enabled () in
  Pc_obs.Registry.set_enabled false;
  let p = ceiling_problem in
  let objective = S.objective_vector p and bounds = S.bounds_of_problem p in
  let lp = S.compile p in
  let words f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    let r = f () in
    let w = Gc.minor_words () -. w0 in
    (match r with
    | S.Optimal _, Some _ -> ()
    | _ -> Alcotest.fail "ceiling problem must solve to optimality");
    w
  in
  let reused = words (fun () -> S.solve_compiled lp ~maximize:true ~objective ~bounds) in
  let fresh =
    words (fun () ->
        S.solve_compiled (S.compile p) ~maximize:true ~objective:(S.objective_vector p)
          ~bounds:(S.bounds_of_problem p))
  in
  Pc_obs.Registry.set_enabled was;
  Alcotest.(check bool)
    (Printf.sprintf "solve on a compiled value: %.0f minor words <= 1000" reused)
    true (reused <= 1000.);
  Alcotest.(check bool)
    (Printf.sprintf "compile and solve: %.0f minor words <= 4000" fresh)
    true (fresh <= 4000.)

(* --- factorization policy pin: a solve whose pivot count exceeds
   [refactor_interval] must rebuild the eta file at least once beyond the
   initial factorization, and the eta/refactorization counters must move.
   Guards against the threshold check silently rotting (e.g. comparing
   against total file length instead of growth since the last rebuild). --- *)

let test_eta_refactorization () =
  let module C = Pc_obs.Registry.Counter in
  let refacts = C.make "lp.refactorizations" in
  let etas = C.make "lp.eta_len" in
  let pivots = C.make "lp.pivots" in
  let r0 = C.get refacts and e0 = C.get etas and p0 = C.get pivots in
  let n = (2 * S.refactor_interval) + 1 in
  (* one equality row per variable: phase 1 must exchange an artificial
     for a structural on every row — 2×interval+1 etas, two forced
     rebuilds *)
  let p =
    {
      S.n_vars = n;
      maximize = true;
      objective = List.init n (fun j -> (j, 1.));
      constraints = List.init n (fun i -> S.c_eq [ (i, 1.) ] 1.);
      var_bounds = [];
    }
  in
  (match S.solve p with
  | S.Optimal s -> check_float "chain optimum" (float_of_int n) s.S.objective_value
  | _ -> Alcotest.fail "expected Optimal");
  let dp = C.get pivots - p0 in
  Alcotest.(check bool)
    (Printf.sprintf "pivots (%d) exceed refactor_interval (%d)" dp
       S.refactor_interval)
    true
    (dp > S.refactor_interval);
  Alcotest.(check bool) "eta entries were accounted" true (C.get etas > e0);
  Alcotest.(check bool)
    "eta growth triggered rebuilds beyond the initial factorization" true
    (C.get refacts - r0 >= 2)

(* --- budget integration: a crushed budget yields Stopped, never an
   exception, and phase-2 stops carry a primal best-so-far. --- *)

let test_budget_stop () =
  let b = Pc_budget.Budget.start (Pc_budget.Budget.spec ~iters:0 ()) in
  let p =
    {
      S.n_vars = 2;
      maximize = true;
      objective = [ (0, 3.); (1, 2.) ];
      constraints = [ S.c_le [ (0, 1.); (1, 1.) ] 4. ];
      var_bounds = [];
    }
  in
  (match S.solve ~budget:b p with
  | S.Stopped { S.reason = S.Iteration_limit; _ } -> ()
  | S.Stopped _ -> Alcotest.fail "wrong stop reason"
  | S.Optimal _ | S.Infeasible | S.Unbounded ->
      Alcotest.fail "expected Stopped under a zero-pivot budget");
  Alcotest.(check bool) "budget is dead" true (Pc_budget.Budget.is_dead b)

let test_deadline_stop () =
  let b = Pc_budget.Budget.start (Pc_budget.Budget.spec ~timeout:0. ()) in
  let p =
    { S.n_vars = 1; maximize = true; objective = [ (0, 1.) ];
      constraints = [ S.c_le [ (0, 1.) ] 1. ]; var_bounds = [] }
  in
  match S.solve ~budget:b p with
  | S.Stopped _ -> ()
  | S.Optimal _ | S.Infeasible | S.Unbounded ->
      Alcotest.fail "expected Stopped under an expired deadline"

(* ---- Column-major programs ---- *)

(* Random allocation structures: 1–7 PCs, 0–9 cells each with a
   non-empty ascending active set, frequency bounds with kl > 0 on about
   half the PCs, with and without consumption columns. *)
let alloc_gen =
  QCheck.Gen.(
    int_range 1 7 >>= fun n_pcs ->
    int_range 0 9 >>= fun n_cells ->
    list_repeat n_cells (list_repeat n_pcs bool) >>= fun masks ->
    list_repeat n_pcs (pair (int_range 0 3) (int_range 0 6)) >>= fun freqs ->
    bool >>= fun consumption ->
    let active mask =
      match List.filteri (fun j _ -> List.nth mask j) (List.init n_pcs Fun.id) with
      | [] -> [ 0 ]
      | active -> active
    in
    let cells = Array.of_list (List.map active masks) in
    let kl = Array.of_list (List.map (fun (lo, hi) -> if lo mod 2 = 0 then 0 else min lo hi) freqs) in
    let ku = Array.of_list (List.map (fun (lo, hi) -> max lo hi) freqs) in
    return (cells, kl, ku, consumption))

let alloc_arb =
  QCheck.make
    ~print:(fun (cells, kl, ku, consumption) ->
      Printf.sprintf "cells=[%s] kl=[%s] ku=[%s] consumption=%b"
        (String.concat "; "
           (Array.to_list (Array.map (fun c -> String.concat "," (List.map string_of_int c)) cells)))
        (String.concat "," (Array.to_list (Array.map string_of_int kl)))
        (String.concat "," (Array.to_list (Array.map string_of_int ku)))
        consumption)
    alloc_gen

let same_layout a b =
  let module L = S.For_tests in
  let a = L.layout a and b = L.layout b in
  let c = a.L.structural and d = b.L.structural in
  c.S.row_ops = d.S.row_ops
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) c.S.row_rhs d.S.row_rhs
  && c.S.col_start = d.S.col_start
  && c.S.col_rows = d.S.col_rows
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) c.S.col_vals d.S.col_vals
  && a.L.single_rows = b.L.single_rows
  && a.L.single_vals = b.L.single_vals
  && a.L.slack_cols = b.L.slack_cols

let bits_equal x y = Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) x y

let pivots_now () =
  let get k = Pc_obs.Registry.Counter.(get (make k)) in
  get "lp.pivots" + get "lp.dual_pivots" + get "lp.phase1_pivots"

(* One solve of each compiled value under the same objective and boxes:
   the same outcome, bit for bit, after the same number of pivots. *)
let same_solve rng a b n_vars =
  let objective =
    Array.init n_vars (fun _ -> if Random.State.bool rng then 0. else float_of_int (Random.State.int rng 9 - 3))
  in
  let lo = Array.init n_vars (fun _ -> float_of_int (Random.State.int rng 2)) in
  let hi = Array.map (fun l -> if Random.State.bool rng then infinity else l +. float_of_int (Random.State.int rng 4)) lo in
  let maximize = Random.State.bool rng in
  let solve t =
    let before = pivots_now () in
    let r, _ = S.solve_compiled t ~maximize ~objective ~bounds:(lo, hi) in
    (r, pivots_now () - before)
  in
  let ra, pa = solve a and rb, pb = solve b in
  pa = pb
  &&
  match (ra, rb) with
  | S.Optimal x, S.Optimal y ->
      Int64.bits_of_float x.S.objective_value = Int64.bits_of_float y.S.objective_value
      && bits_equal x.S.values y.S.values
      && bits_equal x.S.duals y.S.duals
      && bits_equal x.S.reduced_costs y.S.reduced_costs
  | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
  | S.Stopped x, S.Stopped y -> x.S.reason = y.S.reason && x.S.iterations = y.S.iterations
  | _ -> false

(* [Bounds.allocation_columns] through [of_columns] against the row
   lists [Bounds.prepare] built before, through [compile]: equal
   compiled arrays, and equal solves; the same with the any-row row
   ([prepend_row] against the list with [Σ x ≥ 1] in front). *)
let prop_columns_match_lists =
  QCheck.Test.make ~name:"allocation columns compile like the row lists" ~count:400 alloc_arb
    (fun (cells, kl, ku, consumption) ->
      let columns = Pc_core.Bounds.allocation_columns ~cells ~kl ~ku ~consumption in
      let n_vars, rows = Alloc_list.rows ~cells ~kl ~ku ~consumption in
      let n_cells = Array.length cells in
      let listed constraints =
        S.compile { S.n_vars; maximize = true; objective = []; constraints; var_bounds = [] }
      in
      let rng = Random.State.make [| n_vars; List.length rows; n_cells |] in
      let fresh = S.of_columns columns and old = listed rows in
      let any = S.of_columns (S.prepend_row columns ~coeffs:(Array.make n_cells 1.) S.Ge 1.)
      and old_any = listed (Alloc_list.any_row ~n_cells rows) in
      Array.length columns.S.col_start = n_vars + 1
      && same_layout fresh old && same_layout any old_any
      && same_solve rng fresh old n_vars
      && same_solve rng any old_any n_vars)

let test_columns_validation () =
  let ok = { S.row_ops = [| S.Le |]; row_rhs = [| 1. |]; col_start = [| 0; 1 |]; col_rows = [| 0 |]; col_vals = [| 1. |] } in
  ignore (S.of_columns ok);
  let bad label c =
    match S.of_columns c with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  bad "row out of range" { ok with S.col_rows = [| 1 |] };
  bad "zero coefficient" { ok with S.col_vals = [| 0. |] };
  bad "non-finite rhs" { ok with S.row_rhs = [| infinity |] };
  bad "rows per column" { ok with S.row_rhs = [| 1.; 2. |] };
  bad "short arrays" { ok with S.col_start = [| 0; 2 |] };
  bad "descending rows"
    {
      S.row_ops = [| S.Le; S.Le |];
      row_rhs = [| 1.; 1. |];
      col_start = [| 0; 2 |];
      col_rows = [| 1; 0 |];
      col_vals = [| 1.; 1. |];
    }

let () =
  Alcotest.run "pc_lp"
    [
      ( "simplex",
        [
          tc "basic max" `Quick test_basic_max;
          tc "basic min" `Quick test_basic_min;
          tc "equality" `Quick test_equality;
          tc "infeasible" `Quick test_infeasible;
          tc "unbounded" `Quick test_unbounded;
          tc "negative rhs" `Quick test_negative_rhs;
          tc "degenerate" `Quick test_degenerate;
          tc "paper example shape" `Quick test_pc_shaped;
          tc "validation" `Quick test_validation;
          tc "budget stop" `Quick test_budget_stop;
          tc "deadline stop" `Quick test_deadline_stop;
          tc "duplicate indices" `Quick test_duplicate_indices;
          tc "variable bounds" `Quick test_var_bounds;
          tc "empty box infeasible" `Quick test_empty_box_infeasible;
          tc "solve_from matches cold" `Quick test_warm_matches_cold;
          tc "warm reuse across a tightening chain" `Quick
            test_warm_chain_reuse;
          tc "solve_from shape fallback" `Quick test_warm_shape_fallback;
          tc "eta growth forces refactorization" `Quick test_eta_refactorization;
          tc "allocation ceiling" `Quick test_allocation_ceiling;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_dominates_grid;
          QCheck_alcotest.to_alcotest prop_solution_self_check;
          QCheck_alcotest.to_alcotest prop_oracle_dense_vs_sparse;
          QCheck_alcotest.to_alcotest prop_duals_certify;
          QCheck_alcotest.to_alcotest prop_workspace_reuse;
        ] );
      ( "columns",
        [
          QCheck_alcotest.to_alcotest prop_columns_match_lists;
          tc "validation" `Quick test_columns_validation;
        ] );
    ]
