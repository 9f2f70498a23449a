module I = Pc_interval.Interval
module Pred = Pc_predicate.Pred
module Cnf = Pc_predicate.Cnf
module Sat = Pc_predicate.Sat
module S = Pc_lp.Simplex
module M = Pc_milp.Milp
module B = Pc_budget.Budget
module Q = Pc_query.Query
module Counter = Pc_obs.Registry.Counter
module Trace = Pc_obs.Trace

let c_calls = Counter.make "bound.calls"
let c_exact = Counter.make "bound.exact"
let c_relaxed = Counter.make "bound.relaxed"
let c_early = Counter.make "bound.early_stopped"
let c_trivial = Counter.make "bound.trivial"
let h_bound = Pc_obs.Registry.Histogram.make "bound.ns"

type answer = Range of Range.t | Empty | Infeasible

type provenance = Exact | Relaxed | Early_stopped | Trivial

let provenance_name = function
  | Exact -> "exact"
  | Relaxed -> "relaxed"
  | Early_stopped -> "early-stopped"
  | Trivial -> "trivial"

let provenance_order = function
  | Exact -> 0
  | Relaxed -> 1
  | Early_stopped -> 2
  | Trivial -> 3

let worst_provenance a b = if provenance_order a >= provenance_order b then a else b

type stats = {
  provenance : provenance;
  rungs : provenance list;
  cells : int;
  sat_calls : int;
  admitted_unchecked : int;
  milp_nodes : int;
  lp_iterations : int;
  elapsed : float;
  deadline_hit : bool;
}

type outcome = { answer : answer; stats : stats }

type opts = {
  strategy : Cells.strategy;
  node_limit : int;
  tighten : bool;
  use_greedy : bool;
}

let default_opts =
  { strategy = Cells.Dfs_rewrite; node_limit = 2_000; tighten = true; use_greedy = true }

(* Degradation events observed while a ladder run is in flight. The worst
   event determines the answer's provenance. *)
type trace = {
  mutable relaxed : bool;  (** some MILP truncated: dual bounds, not optima *)
  mutable early : bool;  (** decomposition admitted cells unchecked *)
  mutable trivial : bool;  (** fell to the decomposition-free floor *)
  mutable admitted : int;
}

type ctx = {
  opts : opts;
  budget : B.t;
  trace : trace;
  fdd : Pc_predicate.Fdd.compiled option;
      (** diagram precompiled from the full PC set (server bound cache);
          only consulted by the [Cells.Fdd] strategy *)
  warm : (B.t -> answer option) option;
      (** a warm engine's missing-partition COUNT/SUM answer, tried
          before the full path *)
}

(* Raised when a stage cannot produce any sound value within budget (the
   LP/MILP underneath was starved before a dual bound existed). Caught by
   the ladder driver, which steps down to the trivial rung. *)
exception Degrade

(* ------------------------------------------------------------------ *)
(* Preparation: cells, per-cell value bounds, frequency constraints    *)
(* ------------------------------------------------------------------ *)

(* Effective frequency lower bound under query pushdown: a PC's missing
   rows may hide outside the query region unless its predicate is wholly
   contained in it, so kl is only enforceable in that case. *)
let effective_kl qpred (pc : Pc.t) =
  if pc.Pc.freq_lo = 0 then 0
  else if qpred = Pred.tt then pc.Pc.freq_lo
  else begin
    let escapes =
      Sat.check (Cnf.conj (Cnf.of_pred pc.Pc.pred) (Cnf.of_neg_pred qpred))
    in
    if escapes then 0 else pc.Pc.freq_lo
  end

(* ------------------------------------------------------------------ *)
(* Cell regions                                                        *)
(* ------------------------------------------------------------------ *)

(* Where each cell's range of the aggregated attribute comes from: its
   column [k] of a region accumulator, or with [k < 0] one interval for
   every cell — [1] for COUNT and, for an attribute no PC mentions, the
   query's own range under [tighten] (no predicate can clip it), else
   unconstrained. *)
let agg_source ~tighten tbl q (query : Q.t) =
  match Q.agg_attr query with
  | None -> (-1, I.point 1.)
  | Some a -> (Box_table.col tbl a, if tighten then Box_table.outside q a else I.full)

type info = {
  active : int list;
  u : float;  (** max value of the aggregated attribute; +inf possible *)
  l : float;  (** min value; -inf possible *)
}

(* One info per inhabitable cell, in emission order: the decomposition
   builds each cell's region on its way down ({!Cells.regions}). *)
let regions ~ctx set q (query : Q.t) =
  let opts = ctx.opts in
  let tighten = opts.tighten in
  let k, fixed = agg_source ~tighten (Pc_set.table set) q query in
  let fu = I.hi_float fixed and fl = I.lo_float fixed in
  let infos = ref [] in
  let keep active values =
    let info =
      if k >= 0 then { active; u = Box_table.hi values k; l = Box_table.lo values k }
      else { active; u = fu; l = fl }
    in
    infos := info :: !infos
  in
  let cstats =
    Cells.regions ~budget:ctx.budget ?fdd:ctx.fdd ~strategy:opts.strategy ~tighten ~query:q
      ~query_pred:query.Q.where_ set keep
  in
  (Array.of_list (List.rev !infos), cstats)

(* ------------------------------------------------------------------ *)
(* The allocation rows                                                 *)
(* ------------------------------------------------------------------ *)

(* How one PC's frequency range enters the program: not at all (no
   in-query cell), as the box of its only cell, or as rows over its
   cells plus a consumption column ([-1] when the program carries none). *)
type cover = Uncovered | Single of int | Rows of int

(* Equation 2's rows, laid out column by column. A PC covering several
   cells has an upper row and, when its kl is positive, a lower row over
   those cells and its consumption column, every coefficient 1. Rows
   are numbered from the last such PC to the first, a lower row just
   before its upper one, so a column that meets its PCs in descending
   order lists its rows ascending. *)
let layout_rows ~n_cells ~active ~kl ~ku ~consumption =
  let n_pcs = Array.length kl in
  let count = Array.make n_pcs 0 and first = Array.make n_pcs 0 in
  let rec covers_of i = function
    | [] -> ()
    | j :: rest ->
        count.(j) <- count.(j) + 1;
        first.(j) <- i;
        covers_of i rest
  in
  for i = n_cells - 1 downto 0 do
    covers_of i (active i)
  done;
  let m = ref 0 in
  for j = 0 to n_pcs - 1 do
    if count.(j) >= 2 then m := !m + if kl.(j) > 0 then 2 else 1
  done;
  let m = !m in
  let row_ops = Array.make m S.Le and row_rhs = Array.make m 0. in
  (* a covering PC's upper row; its lower row is the one before *)
  let hi_row = Array.make n_pcs (-1) in
  let next_row = ref m and n_vars = ref n_cells in
  let covers =
    Array.init n_pcs (fun j ->
        match count.(j) with
        | 0 -> Uncovered
        | 1 -> Single first.(j)
        | _ ->
            let r = !next_row - 1 in
            hi_row.(j) <- r;
            row_rhs.(r) <- float_of_int ku.(j);
            next_row := r;
            if kl.(j) > 0 then begin
              row_ops.(r - 1) <- S.Ge;
              row_rhs.(r - 1) <- float_of_int kl.(j);
              next_row := r - 1
            end;
            if consumption then begin
              incr n_vars;
              Rows (!n_vars - 1)
            end
            else Rows (-1))
  in
  let n_vars = !n_vars in
  let[@inline] entries j = if hi_row.(j) < 0 then 0 else if kl.(j) > 0 then 2 else 1 in
  (* PC [j]'s entries: its rows in each of its cells and in its
     consumption column *)
  let nnz = ref 0 in
  for j = 0 to n_pcs - 1 do
    nnz := !nnz + (entries j * if consumption then count.(j) + 1 else count.(j))
  done;
  let nnz = !nnz in
  let col_rows = Array.make (max 1 nnz) 0 in
  (* as [Simplex.compile] lays out an empty matrix: one unused zero *)
  let col_vals = if nnz = 0 then [| 0. |] else Array.make nnz 1. in
  (* PC [j]'s rows at [pos], ascending *)
  let put pos j =
    let r = hi_row.(j) in
    if r < 0 then pos
    else if kl.(j) > 0 then begin
      col_rows.(pos) <- r - 1;
      col_rows.(pos + 1) <- r;
      pos + 2
    end
    else begin
      col_rows.(pos) <- r;
      pos + 1
    end
  in
  (* the active set ascends: put its PCs' rows from the last PC back *)
  let rec put_desc pos = function [] -> pos | j :: rest -> put (put_desc pos rest) j in
  let col_start = Array.make (n_vars + 1) 0 in
  for i = 0 to n_cells - 1 do
    col_start.(i + 1) <- put_desc col_start.(i) (active i)
  done;
  let w = ref n_cells in
  for j = 0 to n_pcs - 1 do
    if consumption && hi_row.(j) >= 0 then begin
      col_start.(!w + 1) <- put col_start.(!w) j;
      incr w
    end
  done;
  (covers, { S.row_ops; row_rhs; col_start; col_rows; col_vals })

let allocation_columns ~cells ~kl ~ku ~consumption =
  snd (layout_rows ~n_cells:(Array.length cells) ~active:(Array.get cells) ~kl ~ku ~consumption)

type prepared = {
  sub : Pc_set.t;
      (** the PCs whose predicate overlaps the query region — the only
          ones that can constrain in-region cells (exact reduction: a
          non-overlapping ψ is vacuously negated inside the region) *)
  infos : info array;
  lp : S.compiled Lazy.t;
      (** the PC frequency rows over the cell variables, compiled once
          for every solve of this query: both sides, every MILP node and
          every host test *)
  any_row : S.compiled Lazy.t;
      (** the same rows after "some cell holds a row" ([Σ x ≥ 1]) *)
  covers : cover array;  (** per PC of [sub] *)
  kl : int array;  (** per PC of [sub]: its effective lower bound *)
  v_lo : float array;
      (** dense variable boxes at the consumption the program was built
          for: the folded single-cell covers and the pinned consumption
          columns *)
  v_hi : float array;  (** (infinity when unbounded) *)
  zeros : float array;  (** the all-zero objective of a feasibility test *)
}

exception Found_infeasible

(* Box every variable under per-PC consumption [consumed] (all zero on
   the cold path), as the residual PC set {[(kl−c)⁺ ∧ ku', ku' = (ku−c)⁺]}
   would: a single-cell cover bounds its cell to [(kl−c)⁺, (ku−c)⁺]; a
   consumption column is pinned to [min(c, ku)], which turns its rows
   into exactly the residual ones; an uncovered PC's lower bound must be
   met by consumption alone. Only boxes change with consumption, so a
   warm re-solve stays a pure bound change. False when some box is empty
   (no instance exists). *)
let rebox prep ~consumed ~lo ~hi =
  Array.fill lo 0 (Array.length lo) 0.;
  Array.fill hi 0 (Array.length hi) infinity;
  let ok = ref true in
  Array.iteri
    (fun j cover ->
      let c = consumed.(j) and kl = prep.kl.(j) in
      let ku = (Pc_set.get prep.sub j).Pc.freq_hi in
      match cover with
      | Uncovered -> if kl > c then ok := false
      | Single i ->
          hi.(i) <- Float.min hi.(i) (float_of_int (max 0 (ku - c)));
          lo.(i) <- Float.max lo.(i) (float_of_int (max 0 (kl - c)));
          if lo.(i) > hi.(i) then ok := false
      | Rows w when w >= 0 ->
          lo.(w) <- float_of_int (min c ku);
          hi.(w) <- lo.(w)
      | Rows _ -> ())
    prep.covers;
  !ok

(* Build the allocation problem for a query. [agg_attr = None] is COUNT
   (unit coefficients). With [consumed], every multi-cell cover also
   carries a consumption column and the boxes are those of that
   consumption; without, there are no such columns and consumption is
   zero. Returns [Error Infeasible] when the constraint system provably
   admits no instance. *)
let prepare ~ctx ?consumed set (query : Q.t) : (prepared, answer) result =
  let opts = ctx.opts in
  let qpred = query.Q.where_ in
  try
    let tbl = Pc_set.table set and rows = Pc_set.rows set in
    (* A frequency lower bound on an unsatisfiable predicate is
       unsatisfiable as a system. *)
    for i = 0 to Pc_set.size set - 1 do
      if (Pc_set.get set i).Pc.freq_lo > 0 && not (Box_table.boxed tbl rows.(i)) then
        raise Found_infeasible
    done;
    (* Predicate pushdown at the set level: only PCs overlapping the query
       region participate in the decomposition. Skipped under [Fdd] so the
       precompiled diagram's indices stay aligned with [set] — harmless,
       because a non-overlapping PC never appears in a reachable active
       set: it contributes no covering row and its effective kl is 0. *)
    let q = Box_table.query tbl qpred in
    let set =
      if qpred = Pred.tt || opts.strategy = Cells.Fdd then set
      else
        Pc_set.filter
          (fun i -> Box_table.boxed tbl rows.(i) && Box_table.overlaps tbl q rows.(i))
          set
    in
    let infos, cstats =
      (* the branch keeps the disabled path closure-free *)
      if Trace.enabled () then
        Trace.with_span ~name:"bound.regions" (fun () -> regions ~ctx set q query)
      else regions ~ctx set q query
    in
    if cstats.Cells.admitted_unchecked > 0 then begin
      ctx.trace.early <- true;
      ctx.trace.admitted <- ctx.trace.admitted + cstats.Cells.admitted_unchecked
    end;
    let n_pcs = Pc_set.size set in
    let n_cells = Array.length infos in
    let kl = Array.init n_pcs (fun j -> effective_kl qpred (Pc_set.get set j)) in
    let ku = Array.init n_pcs (fun j -> (Pc_set.get set j).Pc.freq_hi) in
    let covers, columns =
      layout_rows ~n_cells
        ~active:(fun i -> infos.(i).active)
        ~kl ~ku ~consumption:(Option.is_some consumed)
    in
    let n_vars = Array.length columns.S.col_start - 1 in
    let prep =
      {
        sub = set;
        infos;
        lp = lazy (S.of_columns columns);
        any_row =
          lazy (S.of_columns (S.prepend_row columns ~coeffs:(Array.make n_cells 1.) S.Ge 1.));
        covers;
        kl;
        v_lo = Array.make n_vars 0.;
        v_hi = Array.make n_vars infinity;
        zeros = Array.make n_vars 0.;
      }
    in
    let consumed = Option.value consumed ~default:(Array.make n_pcs 0) in
    if not (rebox prep ~consumed ~lo:prep.v_lo ~hi:prep.v_hi) then raise Found_infeasible;
    Ok prep
  with Found_infeasible -> Error Infeasible

(* The empty instance minimizes COUNT/SUM: no lower bound forces a row
   and no row can contribute a negative value. *)
let empty_minimizes prep ~is_count =
  Array.for_all (fun k -> k = 0) prep.kl
  && (is_count || Array.for_all (fun inf -> inf.l >= 0.) prep.infos)

(* ------------------------------------------------------------------ *)
(* MILP plumbing                                                       *)
(* ------------------------------------------------------------------ *)

let milp ~ctx ~maximize ~objective ~bounds lp =
  let r =
    M.solve_compiled ~budget:ctx.budget ~node_limit:ctx.opts.node_limit
      (Lazy.force lp) ~maximize ~objective ~bounds
  in
  (match r with
  | M.Optimal res when res.M.truncated -> ctx.trace.relaxed <- true
  | _ -> ());
  r

(* Can the system place at least [k] rows in cell [i]? Conservative on
   truncation and starvation (answers [true]: a maybe-host only loosens).
   The demand is a bound tightening, not an extra row; when it exceeds the
   cell's folded cap the answer is No without any solve. *)
let cell_can_host ~ctx prep i k =
  let fk = float_of_int k in
  if fk > prep.v_hi.(i) then false
  else begin
    let lo = Array.copy prep.v_lo in
    lo.(i) <- Float.max lo.(i) fk;
    match
      milp ~ctx ~maximize:true ~objective:prep.zeros ~bounds:(lo, prep.v_hi) prep.lp
    with
    | M.Infeasible -> false
    | M.Optimal r -> r.M.incumbent <> None || not r.M.exact
    | M.Unbounded -> true
    | M.Stopped _ ->
        ctx.trace.relaxed <- true;
        true
  end

(* Any row at all in the query region? Unknown-within-budget counts as
   yes: claiming Empty requires proof. *)
let some_row_feasible ~ctx prep =
  let n = Array.length prep.infos in
  if n = 0 then false
  else begin
    match
      milp ~ctx ~maximize:true ~objective:prep.zeros ~bounds:(prep.v_lo, prep.v_hi)
        prep.any_row
    with
    | M.Infeasible -> false
    | M.Optimal r -> r.M.incumbent <> None || not r.M.exact
    | M.Unbounded -> true
    | M.Stopped _ ->
        ctx.trace.relaxed <- true;
        true
  end

(* Replace infinite objective coefficients: a cell with an unbounded
   value that can actually host a row makes the bound infinite; one that
   cannot host a row contributes nothing. *)
let resolve_infinite ~ctx prep coeff_of =
  let n = Array.length prep.infos in
  let coeffs = Array.init n (fun i -> coeff_of prep.infos.(i)) in
  let unbounded = ref false in
  Array.iteri
    (fun i c ->
      if Float.is_finite c then ()
      else if cell_can_host ~ctx prep i 1 then unbounded := true
      else coeffs.(i) <- 0.)
    coeffs;
  (coeffs, !unbounded)

type side = { value : float; exact : bool }

(* Optimize Σ coeffs·x over the frequency polytope. [maximize] selects
   the direction; infinities in coefficients must be resolved first.
   A starved solve (not even a dual bound) degrades the whole ladder. *)
let optimize ~ctx ~maximize prep lp coeffs =
  match milp ~ctx ~maximize ~objective:coeffs ~bounds:(prep.v_lo, prep.v_hi) lp with
  | M.Infeasible -> Error Infeasible
  | M.Unbounded ->
      Ok { value = (if maximize then infinity else neg_infinity); exact = true }
  | M.Optimal r -> Ok { value = r.M.bound; exact = r.M.exact }
  | M.Stopped _ -> raise Degrade

(* ------------------------------------------------------------------ *)
(* COUNT and SUM                                                       *)
(* ------------------------------------------------------------------ *)

let sum_like ~ctx prep ~is_count =
  let n = Array.length prep.infos in
  if n = 0 then
    (* no cell overlaps the query: the aggregate over missing rows is 0 *)
    Range (Range.make ~lo_exact:true ~hi_exact:true 0. 0.)
  else begin
    let hi_result =
      let coeffs, unbounded = resolve_infinite ~ctx prep (fun inf -> inf.u) in
      if unbounded then Ok { value = infinity; exact = true }
      else optimize ~ctx ~maximize:true prep prep.lp coeffs
    in
    let lo_result =
      if empty_minimizes prep ~is_count then Ok { value = 0.; exact = true }
      else begin
        let coeffs, unbounded =
          resolve_infinite ~ctx prep (fun inf -> inf.l)
        in
        if unbounded then Ok { value = neg_infinity; exact = true }
        else
          optimize ~ctx ~maximize:false prep prep.lp coeffs
      end
    in
    match (lo_result, hi_result) with
    | Error a, _ | _, Error a -> a
    | Ok lo, Ok hi ->
        Range
          (Range.make ~lo_exact:lo.exact ~hi_exact:hi.exact lo.value hi.value)
  end

(* ------------------------------------------------------------------ *)
(* MIN / MAX                                                           *)
(* ------------------------------------------------------------------ *)

(* For MAX (and symmetrically MIN): the top of the range is the largest
   per-cell upper bound among cells that can host a row (paper §4.2); the
   bottom is what an adversary minimizing the maximum can reach — every
   forced constraint still pins rows somewhere. *)
let extremal ~ctx prep ~is_max =
  let hosts =
    Array.to_list (Array.mapi (fun i inf -> (i, inf)) prep.infos)
    |> List.filter (fun (i, _) -> cell_can_host ~ctx prep i 1)
  in
  match hosts with
  | [] -> Empty
  | _ ->
      let values_of f = List.map (fun (_, inf) -> f inf) hosts in
      let best = if is_max then Pc_util.Stat.maximum else Pc_util.Stat.minimum in
      let worst = if is_max then Pc_util.Stat.minimum else Pc_util.Stat.maximum in
      let principal = best (Array.of_list (values_of (fun inf -> if is_max then inf.u else inf.l))) in
      (* Adversarial other side. *)
      let forced =
        List.filter (fun j -> prep.kl.(j) > 0) (List.init (Array.length prep.kl) Fun.id)
      in
      let other_side =
        match forced with
        | [] ->
            (* instance may contain a single row in the least favourable
               hosting cell *)
            worst (Array.of_list (values_of (fun inf -> if is_max then inf.l else inf.u)))
        | _ ->
            let per_forced =
              List.map
                (fun j ->
                  let own =
                    List.filter (fun (_, inf) -> List.mem j inf.active) hosts
                  in
                  match own with
                  | [] -> if is_max then neg_infinity else infinity
                  | _ ->
                      let vals =
                        Array.of_list
                          (List.map
                             (fun (_, inf) -> if is_max then inf.l else inf.u)
                             own)
                      in
                      if is_max then Pc_util.Stat.minimum vals
                      else Pc_util.Stat.maximum vals)
                forced
            in
            let arr = Array.of_list per_forced in
            if is_max then Pc_util.Stat.maximum arr else Pc_util.Stat.minimum arr
      in
      let lo, hi =
        if is_max then (other_side, principal) else (principal, other_side)
      in
      if Float.is_nan lo || Float.is_nan hi || lo > hi then
        (* pathological interaction; fall back to the principal side *)
        Range
          (Range.make ~lo_exact:false ~hi_exact:false
             (Float.min principal other_side)
             (Float.max principal other_side))
      else Range (Range.make ~lo_exact:false ~hi_exact:false lo hi)

(* ------------------------------------------------------------------ *)
(* AVG via binary search (paper §4.2)                                  *)
(* ------------------------------------------------------------------ *)

(* Decide whether the maximal reachable average is >= r ([above]), or
   the minimal one <= r, where the instance may be combined with a
   certain partition contributing [c_count] rows and [c_sum] total. Uses
   the MILP bound, which is sound (can only overstate reachability,
   widening the range). *)
let avg_reachable ~ctx prep ~c_count ~c_sum ~above r =
  let coeffs = Array.map (fun inf -> (if above then inf.u else inf.l) -. r) prep.infos in
  let lp = if c_count >= 1. then prep.lp else prep.any_row in
  match optimize ~ctx ~maximize:above prep lp coeffs with
  | Error _ -> false
  | Ok { value; _ } ->
      if above then value >= (r *. c_count) -. c_sum -. 1e-9
      else value <= (r *. c_count) -. c_sum +. 1e-9

let binary_search ~reachable ~lo ~hi ~dir =
  (* [dir = `Up]: find sup { r | reachable r }, assuming reachable lo and
     bracketing the sup in [lo, hi]. The *outer* side of the final bracket
     is returned — the bound must err outward to stay a hard bound. *)
  let rec go lo hi iters =
    if iters = 0 || hi -. lo <= 1e-9 *. Float.max 1. (Float.abs hi) then
      match dir with `Up -> hi | `Down -> lo
    else begin
      let mid = 0.5 *. (lo +. hi) in
      let r = reachable mid in
      match (dir, r) with
      | `Up, true -> go mid hi (iters - 1)
      | `Up, false -> go lo mid (iters - 1)
      | `Down, true -> go lo mid (iters - 1)
      | `Down, false -> go mid hi (iters - 1)
    end
  in
  go lo hi 60

let avg_range ~lo ~hi =
  if lo > hi +. 1e-6 then
    (* numeric corner: the searches crossed; their hull, never narrower
       than either *)
    Range.make ~lo_exact:false ~hi_exact:false (Float.min lo hi) (Float.max lo hi)
  else Range.make ~lo_exact:false ~hi_exact:false (Float.min lo hi) hi

let avg_bounds ~ctx prep ~c_count ~c_sum =
  let n = Array.length prep.infos in
  let no_missing_rows_possible = n = 0 || not (some_row_feasible ~ctx prep) in
  if no_missing_rows_possible && c_count < 1. then Empty
  else if no_missing_rows_possible then
    (* only the certain partition contributes *)
    Range (Range.point (c_sum /. c_count))
  else begin
    (* Unbounded value ranges that can host rows yield infinite ends. *)
    let u_coeffs, u_unbounded =
      resolve_infinite ~ctx prep (fun inf -> inf.u)
    in
    let l_coeffs, l_unbounded =
      resolve_infinite ~ctx prep (fun inf -> inf.l)
    in
    let finite_u = Pc_util.Stat.maximum u_coeffs in
    let finite_l = Pc_util.Stat.minimum l_coeffs in
    let certain_avg = if c_count >= 1. then Some (c_sum /. c_count) else None in
    let search_hi0 =
      match certain_avg with
      | Some a -> Float.max a finite_u
      | None -> finite_u
    and search_lo0 =
      match certain_avg with
      | Some a -> Float.min a finite_l
      | None -> finite_l
    in
    let hi =
      if u_unbounded then infinity
      else
        binary_search
          ~reachable:(avg_reachable ~ctx prep ~c_count ~c_sum ~above:true)
          ~lo:search_lo0 ~hi:(search_hi0 +. 1e-6) ~dir:`Up
    and lo =
      if l_unbounded then neg_infinity
      else
        binary_search
          ~reachable:(avg_reachable ~ctx prep ~c_count ~c_sum ~above:false)
          ~lo:(search_lo0 -. 1e-6) ~hi:search_hi0 ~dir:`Down
    in
    Range (avg_range ~lo ~hi)
  end

(* ------------------------------------------------------------------ *)
(* Greedy fast path for disjoint predicate sets (paper §4.2,           *)
(* "Faster Algorithm in Special Cases"): each predicate is its own     *)
(* cell and the allocation decouples per constraint — O(n) per query.  *)
(* ------------------------------------------------------------------ *)

module Greedy = struct
  type gcell = {
    u : float;
    l : float;
    kl : int;  (** effective lower bound under pushdown *)
    ku : int;
  }

  (* One gcell per PC overlapping the query region; [Error] when the
     system is infeasible. Specialized to the one-PC-per-cell shape: the
     PC's in-query region is its table row met with the query, predicate
     first, as conjoining the query into its cached box would give. *)
  let prepare ~opts set (query : Q.t) =
    let qpred = query.Q.where_ and tighten = opts.tighten in
    let tbl = Pc_set.table set and rows = Pc_set.rows set in
    let q = Box_table.query tbl qpred in
    let values = Box_table.acc tbl and clip = Box_table.acc tbl in
    let k, fixed = agg_source ~tighten tbl q query in
    try
      let cells = ref [] in
      for i = 0 to Pc_set.size set - 1 do
        let pc = Pc_set.get set i and r = rows.(i) in
        if not (Box_table.boxed tbl r) then begin
          if pc.Pc.freq_lo > 0 then raise Found_infeasible
        end
        else if not (Box_table.overlaps tbl q r) then () (* no overlap with the query region *)
        else if not (Box_table.single tbl ~tighten q values clip r) then begin
          (* predicate region overlaps the query but admits no valid row
             values *)
          if effective_kl qpred pc > 0 then raise Found_infeasible
        end
        else begin
          let l, u =
            if k >= 0 then (Box_table.lo values k, Box_table.hi values k)
            else (I.lo_float fixed, I.hi_float fixed)
          in
          cells := { u; l; kl = effective_kl qpred pc; ku = pc.Pc.freq_hi } :: !cells
        end
      done;
      Ok (List.rev !cells)
    with Found_infeasible -> Error Infeasible

  (* max over x in [kl, ku] of x * coeff, and min respectively. *)
  let max_contrib c =
    if c.ku = 0 then 0.
    else if c.u >= 0. then float_of_int c.ku *. c.u
    else float_of_int c.kl *. c.u

  let min_contrib c =
    if c.ku = 0 then 0.
    else if c.l <= 0. then float_of_int c.ku *. c.l
    else float_of_int c.kl *. c.l

  let sum_like cells ~is_count =
    let cells = if is_count then List.map (fun c -> { c with u = 1.; l = 1. }) cells else cells in
    let hi = List.fold_left (fun acc c -> acc +. max_contrib c) 0. cells in
    let lo = List.fold_left (fun acc c -> acc +. min_contrib c) 0. cells in
    Range (Range.make ~lo_exact:true ~hi_exact:true lo hi)

  let hosts cells = List.filter (fun c -> c.ku >= 1) cells

  let extremal cells ~is_max =
    match hosts cells with
    | [] -> Empty
    | hs ->
        let arr f = Array.of_list (List.map f hs) in
        let principal =
          if is_max then Pc_util.Stat.maximum (arr (fun c -> c.u))
          else Pc_util.Stat.minimum (arr (fun c -> c.l))
        in
        let forced = List.filter (fun c -> c.kl >= 1) hs in
        let other =
          match forced with
          | [] ->
              if is_max then Pc_util.Stat.minimum (arr (fun c -> c.l))
              else Pc_util.Stat.maximum (arr (fun c -> c.u))
          | _ ->
              let farr f = Array.of_list (List.map f forced) in
              if is_max then Pc_util.Stat.maximum (farr (fun c -> c.l))
              else Pc_util.Stat.minimum (farr (fun c -> c.u))
        in
        let lo, hi = if is_max then (other, principal) else (principal, other) in
        Range
          (Range.make ~lo_exact:false ~hi_exact:false (Float.min lo hi)
             (Float.max lo hi))

  (* Threshold test for AVG: can the (possibly certain-combined) average
     reach at least ([above]) / at most r? Below is above mirrored:
     negating the values and the threshold is exact in floating point. *)
  let reach cells ~c_count ~c_sum ~above r =
    let sign = if above then 1. else -1. in
    let total = ref 0. and allocated = ref false and best_single = ref neg_infinity in
    List.iter
      (fun c ->
        if c.ku >= 1 then begin
          let w = sign *. ((if above then c.u else c.l) -. r) in
          if w > 0. then begin
            total := !total +. (float_of_int c.ku *. w);
            allocated := true
          end
          else if c.kl >= 1 then begin
            total := !total +. (float_of_int c.kl *. w);
            allocated := true
          end;
          if w > !best_single then best_single := w
        end)
      cells;
    if c_count >= 1. then !total >= (sign *. ((r *. c_count) -. c_sum)) -. 1e-9
    else begin
      let v = if !allocated then !total else !best_single in
      v >= -1e-9
    end

  let avg cells ~c_count ~c_sum =
    match hosts cells with
    | [] when c_count < 1. -> Empty
    | [] -> Range (Range.point (c_sum /. c_count))
    | hs ->
        let us = Array.of_list (List.map (fun c -> c.u) hs) in
        let ls = Array.of_list (List.map (fun c -> c.l) hs) in
        if Array.exists (fun u -> u = infinity) us then
          Range (Range.make neg_infinity infinity)
        else begin
          let fin_hi = Pc_util.Stat.maximum us and fin_lo = Pc_util.Stat.minimum ls in
          let fin_lo = if Float.is_finite fin_lo then fin_lo else -1e12 in
          let certain_avg = if c_count >= 1. then Some (c_sum /. c_count) else None in
          let hi0 =
            match certain_avg with Some a -> Float.max a fin_hi | None -> fin_hi
          and lo0 =
            match certain_avg with Some a -> Float.min a fin_lo | None -> fin_lo
          in
          let lo_unbounded = Array.exists (fun l -> l = neg_infinity) ls in
          let hi =
            binary_search
              ~reachable:(reach cells ~c_count ~c_sum ~above:true)
              ~lo:lo0 ~hi:(hi0 +. 1e-6) ~dir:`Up
          in
          let lo =
            if lo_unbounded then neg_infinity
            else
              binary_search
                ~reachable:(reach cells ~c_count ~c_sum ~above:false)
                ~lo:(lo0 -. 1e-6) ~hi:hi0 ~dir:`Down
          in
          Range
            (Range.make ~lo_exact:false ~hi_exact:false (Float.min lo hi)
               (Float.max lo hi))
        end

  let answer cells (query : Q.t) ~c_count ~c_sum =
    match query.Q.agg with
    | Q.Count -> (
        match sum_like cells ~is_count:true with
        | Range r -> Range (Range.shift r c_count)
        | other -> other)
    | Q.Sum _ -> (
        match sum_like cells ~is_count:false with
        | Range r -> Range (Range.shift r c_sum)
        | other -> other)
    | Q.Avg _ -> avg cells ~c_count ~c_sum
    | Q.Max _ | Q.Min _ ->
        (* the per-cell shapes match the general path; certain
           combination is handled by the caller *)
        extremal cells ~is_max:(query.Q.agg = Q.Max (Option.get (Q.agg_attr query)))

  let run ~opts set query ~c_count ~c_sum =
    match prepare ~opts set query with
    | Error a -> a
    | Ok cells -> answer cells query ~c_count ~c_sum

  let bound ~opts set query ~c_count ~c_sum =
    (* the branch keeps the disabled path closure-free *)
    if Trace.enabled () then
      Trace.with_span ~name:"bound.greedy" (fun () -> run ~opts set query ~c_count ~c_sum)
    else run ~opts set query ~c_count ~c_sum
end

(* ------------------------------------------------------------------ *)
(* Trivial rung: a decomposition- and solver-free interval computed    *)
(* directly from frequency caps × value bounds. The ladder's floor —   *)
(* O(n), allocation-free, cannot be starved. Soundness per aggregate:  *)
(*   COUNT  in-region rows each satisfy ≥1 overlapping PC (closure),   *)
(*          each PC holds ≤ ku rows, so COUNT ≤ Σ ku; with no query    *)
(*          predicate every kl is enforceable and distinct rows ≥ any  *)
(*          single kl, so COUNT ≥ max kl.                              *)
(*   SUM    a row assigned to one covering PC contributes ≤ max(0,u)   *)
(*          within its ≤ ku peers; dropping negative terms on the hi   *)
(*          side (and positive ones on the lo side) only loosens.      *)
(*   AVG    every row's value lies in [min l, max u] over hosting PCs, *)
(*          hence so does any average of them (certain rows widen the  *)
(*          bracket to include their exact average).                   *)
(*   MIN/MAX the extremum is one row's value, bracketed the same way.  *)
(* Overlap with the query region is tested by boxes only; a predicate  *)
(* that cannot be boxed is kept (possibly-overlapping loosens, never   *)
(* invalidates).                                                       *)
(* ------------------------------------------------------------------ *)

module Trivial = struct
  type tcell = { u : float; l : float; ku : int; kl : int }

  let cells set (query : Q.t) =
    let qpred = query.Q.where_ in
    let tbl = Pc_set.table set and rows = Pc_set.rows set in
    let q = Box_table.query tbl qpred in
    let k = match Q.agg_attr query with None -> -1 | Some a -> Box_table.col tbl a in
    List.filter_map
      (fun i ->
        let pc = Pc_set.get set i and r = rows.(i) in
        if Box_table.boxed tbl r && not (Box_table.overlaps tbl q r) then None
        else begin
          let l, u =
            match Q.agg_attr query with
            | None -> (1., 1.)
            | Some _ when k < 0 -> (neg_infinity, infinity)
            | Some _ -> (Box_table.value_lo tbl r k, Box_table.value_hi tbl r k)
          in
          (* kl is only enforceable without a query predicate; testing
             containment would need the solver this rung must not touch *)
          let kl = if qpred = Pred.tt then pc.Pc.freq_lo else 0 in
          Some { u; l; ku = pc.Pc.freq_hi; kl }
        end)
      (List.init (Pc_set.size set) Fun.id)

  let range lo hi = Range (Range.make ~lo_exact:false ~hi_exact:false (Float.min lo hi) hi)

  let bound set (query : Q.t) ~c_count ~c_sum =
    let cells = cells set query in
    let hosts = List.filter (fun c -> c.ku >= 1) cells in
    match query.Q.agg with
    | Q.Count ->
        let hi = List.fold_left (fun acc c -> acc +. float_of_int c.ku) 0. hosts in
        let lo = List.fold_left (fun acc c -> Float.max acc (float_of_int c.kl)) 0. hosts in
        range (c_count +. lo) (c_count +. hi)
    | Q.Sum _ ->
        let hi =
          List.fold_left
            (fun acc c -> acc +. (float_of_int c.ku *. Float.max 0. c.u))
            0. hosts
        in
        let lo =
          List.fold_left
            (fun acc c -> acc +. (float_of_int c.ku *. Float.min 0. c.l))
            0. hosts
        in
        range (c_sum +. lo) (c_sum +. hi)
    | Q.Avg _ -> (
        match hosts with
        | [] when c_count < 1. -> Empty
        | [] -> Range (Range.point (c_sum /. c_count))
        | _ ->
            let lo = List.fold_left (fun acc c -> Float.min acc c.l) infinity hosts in
            let hi = List.fold_left (fun acc c -> Float.max acc c.u) neg_infinity hosts in
            let lo, hi =
              if c_count >= 1. then begin
                let a = c_sum /. c_count in
                (Float.min lo a, Float.max hi a)
              end
              else (lo, hi)
            in
            range lo hi)
    | Q.Min _ | Q.Max _ -> (
        (* certain combination is handled by the caller, as in Greedy *)
        match hosts with
        | [] -> Empty
        | _ ->
            let lo = List.fold_left (fun acc c -> Float.min acc c.l) infinity hosts in
            let hi = List.fold_left (fun acc c -> Float.max acc c.u) neg_infinity hosts in
            range lo hi)
end

(* ------------------------------------------------------------------ *)
(* Ladder driver                                                       *)
(* ------------------------------------------------------------------ *)

let use_greedy_path ~opts set = opts.use_greedy && Pc_set.is_disjoint set

(* The warm engine's answer, when the caller supplied one. *)
let warm_answer ~ctx (query : Q.t) =
  match (ctx.warm, query.Q.agg) with
  | Some f, (Q.Count | Q.Sum _) -> (
      match f ctx.budget with
      | Some (Range r) as a when not (r.Range.lo_exact && r.Range.hi_exact) ->
          (* a truncated MILP underneath: dual bounds, as on the ladder *)
          ctx.trace.relaxed <- true;
          a
      | a -> a)
  | _ -> None

(* Full-strength bound over the missing partition (exact MILP, degrading
   in place to dual bounds / admitted cells). Raises on starvation. *)
let missing_bound_exn ~ctx set (query : Q.t) =
  let opts = ctx.opts in
  match warm_answer ~ctx query with
  | Some a -> a
  | None when use_greedy_path ~opts set ->
      Greedy.bound ~opts set query ~c_count:0. ~c_sum:0.
  | None -> (
      match prepare ~ctx set query with
      | Error a -> a
      | Ok prep -> (
          match query.Q.agg with
          | Q.Count -> sum_like ~ctx prep ~is_count:true
          | Q.Sum _ -> sum_like ~ctx prep ~is_count:false
          | Q.Avg _ -> avg_bounds ~ctx prep ~c_count:0. ~c_sum:0.
          | Q.Max _ -> extremal ~ctx prep ~is_max:true
          | Q.Min _ -> extremal ~ctx prep ~is_max:false))

(* Run [f]; when the budget starves it (or the configured strategy cannot
   even enumerate), step down to the trivial rung instead of raising.
   Each rung gets its own span so a trace shows exactly where a query
   spent its time and why it fell. *)
let with_floor ~ctx f floor =
  let fall cause =
    ctx.trace.trivial <- true;
    if Trace.enabled () then
      Trace.with_span ~name:"rung.trivial" ~attrs:[ ("cause", cause) ] floor
    else floor ()
  in
  let run () =
    if Trace.enabled () then
      Trace.with_span ~name:"rung.full" (fun () ->
          match f () with
          | r ->
              Trace.add_attr "outcome" "ok";
              r
          | exception e ->
              Trace.add_attr "outcome" "degraded";
              raise e)
    else f ()
  in
  try run () with
  | B.Exhausted r -> fall ("exhausted:" ^ B.resource_name r)
  | Degrade -> fall "starved"
  | Cells.Enumeration_guard _ -> fall "enumeration-guard"
  | Pc_fault.Fault.Injected site ->
      (* an injected SAT/solver failure degrades exactly like budget
         exhaustion; the floor below is solver-free, so it cannot be
         re-injected *)
      fall ("fault:" ^ Pc_fault.Fault.site_name site)

let missing_answer ~ctx set query =
  with_floor ~ctx
    (fun () -> missing_bound_exn ~ctx set query)
    (fun () -> Trivial.bound set query ~c_count:0. ~c_sum:0.)

let can_be_empty set (query : Q.t) =
  List.for_all
    (fun pc -> effective_kl query.Q.where_ pc = 0)
    (Pc_set.pcs set)

(* Combined R* ∪ R? bound (§6.2's partial-ground-truth protocol): the
   certain partition is evaluated exactly; only the missing-data side is
   subject to the ladder. *)
let combined_answer ~ctx set ~certain (query : Q.t) =
  let opts = ctx.opts in
  (* the certain side folded in place: no selection or column copy *)
  let n, acc = Q.fold certain query in
  let c_count = float_of_int n in
  match query.Q.agg with
  | Q.Count -> (
      match missing_answer ~ctx set query with
      | Range r -> Range (Range.shift r c_count)
      | (Empty | Infeasible) as a -> a)
  | Q.Sum _ -> (
      match missing_answer ~ctx set query with
      | Range r -> Range (Range.shift r acc)
      | (Empty | Infeasible) as ans -> ans)
  | Q.Avg _ ->
      with_floor ~ctx
        (fun () ->
          if use_greedy_path ~opts set then
            Greedy.bound ~opts set query ~c_count ~c_sum:acc
          else
            match prepare ~ctx set query with
            | Error ans -> ans
            | Ok prep -> avg_bounds ~ctx prep ~c_count ~c_sum:acc)
        (fun () -> Trivial.bound set query ~c_count ~c_sum:acc)
  | Q.Min _ | Q.Max _ -> (
      let is_max = match query.Q.agg with Q.Max _ -> true | _ -> false in
      let certain_extreme = if n = 0 then None else Some acc in
      let missing = missing_answer ~ctx set query in
      match (missing, certain_extreme) with
      | Infeasible, _ -> Infeasible
      | Empty, None -> Empty
      | Empty, Some m -> Range (Range.point m)
      | Range r, None -> Range r
      | Range r, Some m ->
          let empty_ok =
            (* an injected SAT failure here is absorbed conservatively:
               claiming "may be empty" only widens the combined range *)
            try can_be_empty set query
            with Pc_fault.Fault.Injected _ ->
              ctx.trace.relaxed <- true;
              true
          in
          if is_max then begin
            (* MAX(union) = max(m*, MAX(missing)); an allowed-empty
               missing partition pins the low end at m*. *)
            let lo = if empty_ok then m else Float.max m r.Range.lo in
            let hi = Float.max m r.Range.hi in
            Range (Range.make ~lo_exact:false ~hi_exact:false (Float.min lo hi) hi)
          end
          else begin
            let hi = if empty_ok then m else Float.min m r.Range.hi in
            let lo = Float.min m r.Range.lo in
            Range (Range.make ~lo_exact:false ~hi_exact:false lo (Float.max lo hi))
          end)

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let provenance_counter = function
  | Exact -> c_exact
  | Relaxed -> c_relaxed
  | Early_stopped -> c_early
  | Trivial -> c_trivial

let new_trace () = { relaxed = false; early = false; trivial = false; admitted = 0 }

let bound_budgeted ?(opts = default_opts) ?budget ?certain ?fdd ?warm set
    (query : Q.t) =
  let budget = match budget with Some b -> b | None -> B.unlimited () in
  let u0 = B.usage budget in
  let t0 = Pc_util.Clock.now () in
  let trace = new_trace () in
  let ctx = { opts; budget; trace; fdd; warm } in
  let compute () =
    let answer =
      match certain with
      | None -> missing_answer ~ctx set query
      | Some certain -> combined_answer ~ctx set ~certain query
    in
    let provenance =
      if trace.trivial then Trivial
      else if trace.early then Early_stopped
      else if trace.relaxed then Relaxed
      else Exact
    in
    (answer, provenance)
  in
  let answer, provenance =
    (* the branch keeps the disabled path closure-free *)
    if Trace.enabled () then
      Trace.with_span ~name:"bound" (fun () ->
          let ((_, p) as r) = compute () in
          Trace.add_attr "provenance" (provenance_name p);
          r)
    else compute ()
  in
  let u1 = B.usage budget in
  let elapsed = Pc_util.Clock.elapsed_s ~since:t0 in
  Counter.incr c_calls;
  Counter.incr (provenance_counter provenance);
  Pc_obs.Registry.Histogram.observe_ns h_bound (elapsed *. 1e9);
  (* the rungs this call actually engaged, in ladder order: the
     full-strength attempt always runs first; each degradation event adds
     its rung. A fall straight to the floor reads [Exact; Trivial]. *)
  let rungs =
    (Exact :: (if trace.relaxed then [ Relaxed ] else []))
    @ (if trace.early then [ Early_stopped ] else [])
    @ if trace.trivial then [ Trivial ] else []
  in
  {
    answer;
    stats =
      {
        provenance;
        rungs;
        cells = u1.B.cells - u0.B.cells;
        sat_calls = u1.B.sat_calls - u0.B.sat_calls;
        admitted_unchecked = trace.admitted;
        milp_nodes = u1.B.nodes - u0.B.nodes;
        lp_iterations = u1.B.iters - u0.B.iters;
        elapsed;
        deadline_hit = u1.B.deadline_hit;
      };
  }

let bound ?opts set query = (bound_budgeted ?opts set query).answer

let bound_with_certain ?opts set ~certain query =
  (bound_budgeted ?opts ~certain set query).answer

(* ------------------------------------------------------------------ *)
(* The allocation program for a warm engine                            *)
(* ------------------------------------------------------------------ *)

type allocation = prepared

type program = {
  alloc : allocation;
  cells : int;
  lp : S.compiled;
  obj_hi : float array;
  obj_lo : float array option;
}

let program ?(tighten = true) ?(budget = B.unlimited ()) ~fdd set (query : Q.t) =
  let opts = { default_opts with strategy = Cells.Fdd; tighten } in
  let ctx = { opts; budget; trace = new_trace (); fdd = Some fdd; warm = None } in
  match prepare ~ctx ~consumed:(Array.make (Pc_set.size set) 0) set query with
  | Error _ -> None
  | Ok prep ->
      let lo_zero = empty_minimizes prep ~is_count:(Q.agg_attr query = None) in
      let finite f = Array.for_all (fun inf -> Float.is_finite (f inf)) prep.infos in
      let n_cells = Array.length prep.infos in
      (* dense, a zero coefficient read as [0.] *)
      let objective f =
        Array.init (Array.length prep.v_hi) (fun i ->
            if i < n_cells && f prep.infos.(i) <> 0. then f prep.infos.(i) else 0.)
      in
      if not (finite (fun inf -> inf.u) && (lo_zero || finite (fun inf -> inf.l)))
      then None
      else
        Some
          {
            alloc = prep;
            cells = n_cells;
            lp = Lazy.force prep.lp;
            obj_hi = objective (fun inf -> inf.u);
            obj_lo = (if lo_zero then None else Some (objective (fun inf -> inf.l)));
          }

let rebox p = rebox p.alloc
