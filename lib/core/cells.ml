module Pred = Pc_predicate.Pred
module Cnf = Pc_predicate.Cnf
module Sat = Pc_predicate.Sat
module B = Pc_budget.Budget
module Counter = Pc_obs.Registry.Counter
module Trace = Pc_obs.Trace

(* Registered at load time so the --metrics key set is stable. Hot paths
   accumulate in locals (the refs inside [budgeted]) and flush once per
   decomposition. *)
let c_decompositions = Counter.make "cells.decompositions"
let c_cells = Counter.make "cells.emitted"
let c_witness_hits = Counter.make "cells.witness_hits"
let c_admitted = Counter.make "cells.admitted_unchecked"

type strategy = Naive | Dfs | Dfs_rewrite | Early_stop of int | Fdd

type stats = {
  sat_calls : int;
  atom_ops : int;
  n_cells : int;
  admitted_unchecked : int;
  witness_hits : int;
  elapsed : float;
}

let strategy_name = function
  | Naive -> "naive"
  | Dfs -> "dfs"
  | Dfs_rewrite -> "dfs+rewrite"
  | Early_stop k -> Printf.sprintf "early-stop(%d)" k
  | Fdd -> "fdd"

let max_enum_bits = 24

exception Enumeration_guard of int

let guard_enumeration n = if n > max_enum_bits then raise (Enumeration_guard n)

(* Budget adapter shared by all strategies. [check]/[decide] answer
   "satisfiable" without consulting the solver once the SAT budget or
   deadline is exhausted (dynamic early stop: admitted cells can only
   loosen the bounds, never invalidate them — same soundness argument as
   [Early_stop]). [emit] enforces the hard cell cap: past it there is no
   sound way to continue (dropping cells would tighten), so it raises
   {!B.Exhausted} for the ladder driver to catch. Solver effort is
   counted in [tally] and flushed to the global counters once per
   decomposition. *)
type budgeted = {
  tally : Sat.tally;
  check : Cnf.t -> bool;  (** naive path: one solver search per subset *)
  decide : eager:bool -> Box_table.frames -> int -> bool;
      (** incremental path: decide a DFS level. With [eager] every
          decision runs (and is charged) one solver search; otherwise a
          live witness certifies satisfiability for free and only
          witness-dead levels pay for a search. [false] on proven
          unsatisfiability. *)
  admit : unit -> unit;
      (** charge one emitted cell: raises past the cell cap or the
          deadline *)
  emitted : int ref;
  admitted : int ref;
  witness_hits : int ref;
      (** decisions certified by a live cached witness, i.e. answered
          without a solver search *)
}

(* Admission only degrades (false-positive cells loosen the bounds), so a
   SAT-cap overrun switches to admit mode; but it must not become a memory
   bomb on deep predicate sets, hence a hard ceiling on cells emitted
   after the switch. A deadline overrun raises instead: there is no time
   left to even enumerate, and the ladder's trivial rung needs none. *)
let max_admitted = 4096

let budgeted budget =
  let tally = Sat.tally () in
  let admit = ref false in
  let admitted = ref 0 in
  let witness_hits = ref 0 in
  (* [true] when the budget lets one more search run, after switching to
     admit mode when it does not *)
  let charge () =
    match budget with
    | None -> true
    | Some b ->
        if B.out_of_time b then raise (B.Exhausted B.Deadline)
        else if not (B.take_sat b) then begin
          admit := true;
          false
        end
        else true
  in
  let check expr = !admit || (not (charge ())) || Sat.check ~tally expr in
  (* a charged search: [true] on success or after switching to admit
     mode (the level then rides along undecided) *)
  let solve_charged f l = (not (charge ())) || Box_table.search f tally l in
  let decide ~eager f l =
    if !admit then true
    else if eager then begin
      Box_table.drop_witness f l;
      solve_charged f l
    end
    else if Box_table.witness_alive f l then begin
      incr witness_hits;
      true
    end
    else solve_charged f l
  in
  let emitted = ref 0 in
  let admit () =
    (match budget with
    | None -> ()
    | Some b ->
        if B.out_of_time b then raise (B.Exhausted B.Deadline);
        if not (B.take_cell b) then begin
          B.exhaust b B.Cells;
          raise (B.Exhausted B.Cells)
        end);
    if !admit then begin
      incr admitted;
      if !admitted > max_admitted then begin
        Option.iter (fun b -> B.exhaust b B.Cells) budget;
        raise (B.Exhausted B.Cells)
      end
    end;
    incr emitted
  in
  { tally; check; decide; admit; emitted; admitted; witness_hits }

(* Where the cells go: [emit d active] charges and hands on a cell
   whose ascending active set is [active]. With region levels, [d] is
   the level its PCs were met into, and the cell is handed on with its
   region when that is inhabitable. *)
type sink = { levels : Box_table.regions option; emit : int -> int list -> unit }

let down sink d r = match sink.levels with Some g -> Box_table.down g d r | None -> ()

(* A cell whose PCs no walk has met yet ([Naive], [Fdd]): met into the
   levels from level 0, then emitted. *)
let emit_met sink rows active =
  (match sink.levels with
  | Some g -> List.iteri (fun d i -> Box_table.down g d rows.(i)) active
  | None -> ());
  sink.emit (List.length active) active

let naive bg set base sink =
  let n = Pc_set.size set and rows = Pc_set.rows set in
  guard_enumeration n;
  let pred i = (Pc_set.get set i).Pc.pred in
  let pos = Array.init n (fun i -> Cnf.of_pred (pred i))
  and neg = Array.init n (fun i -> Cnf.of_neg_pred (pred i)) in
  for mask = 1 to (1 lsl n) - 1 do
    let expr = ref base in
    for i = n - 1 downto 0 do
      expr := Cnf.conj (if mask land (1 lsl i) <> 0 then pos.(i) else neg.(i)) !expr
    done;
    if bg.check !expr then begin
      emit_met sink rows (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id))
    end
  done

(* Depth-first over predicate indices on one frame stack of the set's
   box table ({!Box_table.frames}): level [i] holds the solved form of
   the first [i] choices (box, pending negated clauses, witness), so a
   positive extension is one hull meet, a negative one tests one
   compiled clause, and only witness-dead levels fall back to
   branch-and-prune seeded from the level's box.

   [rewrite] enables Optimization 3: a failed positive extension
   certifies the negative one for free ("X sat ∧ X∧ψ unsat ⟹ X∧¬ψ
   sat"). [eager] verifies every surviving extension with one charged
   solver search ([Dfs], Optimization 2, keeps that historical cost
   model as the comparison baseline). Below depth [k] every completion
   is admitted unchecked (Optimization 4, [Early_stop k]: false
   positives only relax the optimization problem); [k <= 0] skips the
   query check too. *)
let dfs bg tbl rows ~eager ~rewrite ~k query sink =
  let n = Array.length rows in
  (* [d] PCs chosen, [active] holds them descending *)
  let emit d = function
    | [] -> () (* closure excludes the all-negative region *)
    | active -> sink.emit d (List.rev active)
  in
  (* beyond the verified prefix: admit both branches blindly *)
  let rec go_blind i d active =
    if i = n then emit d active
    else begin
      down sink d rows.(i);
      go_blind (i + 1) (d + 1) (i :: active);
      go_blind (i + 1) d active
    end
  in
  let f = Box_table.frames tbl ~depth:n in
  let rec go i d active =
    if i = n then emit d active
    else if i >= k then go_blind i d active
    else begin
      let r = rows.(i) in
      let pos_sat =
        Box_table.assume_row f bg.tally i r
        && bg.decide ~eager f (i + 1)
        && begin
             down sink d r;
             go (i + 1) (d + 1) (i :: active);
             true
           end
      in
      (* [false]: the negative region is empty; without [pos_sat] the
         rewrite certificate skips the solver search *)
      if
        Box_table.assume_neg f bg.tally i r
        && ((rewrite && not pos_sat) || bg.decide ~eager f (i + 1))
      then go (i + 1) d active
    end
  in
  if k <= 0 then go_blind 0 0 []
  else if Box_table.start f bg.tally (query ()) && bg.decide ~eager f 0 then go 0 0 []

let compile set =
  Pc_predicate.Fdd.compile
    (Array.of_list (List.map (fun (pc : Pc.t) -> pc.Pc.pred) (Pc_set.pcs set)))

(* FDD fast path: compile the predicate set into a hash-consed interval
   decision diagram (or reuse a precompiled one) and read the satisfiable
   cells straight off the reachable leaves — zero solver searches. The
   leaves come out in the DFS's order, which the qcheck oracle property
   pins down. *)
let fdd_path ?budget fdd query_pred emit =
  (match budget with
  | Some b when B.out_of_time b -> raise (B.Exhausted B.Deadline)
  | _ -> ());
  List.iter emit (Pc_predicate.Fdd.cells ~query:query_pred fdd)

(* Compile-once memo for the Fdd strategy: one slot keyed on the set's
   physical identity. Predicates inside a [Pc_set.t] are immutable, so a
   physical hit can never be stale; callers that re-bound the same set
   (the common shape: one set, many queries) pay compile exactly once.
   The server still passes its per-dataset ?fdd explicitly, which wins
   over the memo. A losing race just compiles twice; both results are
   equivalent. *)
let fdd_memo : (Pc_set.t * Pc_predicate.Fdd.compiled) option Atomic.t =
  Atomic.make None

let fdd_for set =
  match Atomic.get fdd_memo with
  | Some (s, f) when s == set -> f
  | _ ->
      let f = compile set in
      Atomic.set fdd_memo (Some (set, f));
      f

(* Where a decomposition's cells end up: handed on as they are, or, per
   cell whose region (under [tighten], within the query) is
   inhabitable, with that region. *)
type keep =
  | Cells of (int list -> unit)
  | Regions of bool * Box_table.query * (int list -> Box_table.acc -> unit)

let decompose_run ?budget ?fdd ~strategy ~query_pred set keep =
  let tbl = Pc_set.table set and rows = Pc_set.rows set in
  let n = Array.length rows in
  let t0 = Pc_util.Clock.now () in
  let bg = budgeted budget in
  let sink =
    match keep with
    | Cells f ->
        {
          levels = None;
          emit =
            (fun _ active ->
              bg.admit ();
              f active);
        }
    | Regions (tighten, q, f) ->
        let g = Box_table.regions tbl ~rows ~tighten q ~depth:n in
        {
          levels = Some g;
          emit =
            (fun d active ->
              bg.admit ();
              if Box_table.leaf g d active then f active (Box_table.values g));
        }
  in
  let query () =
    match keep with Regions (_, q, _) -> q | Cells _ -> Box_table.query tbl query_pred
  in
  let dfs ~eager ~rewrite ~k = dfs bg tbl rows ~eager ~rewrite ~k query sink in
  let run () =
    match strategy with
    | Naive -> naive bg set (Cnf.of_pred query_pred) sink
    | Dfs -> dfs ~eager:true ~rewrite:false ~k:max_int
    | Dfs_rewrite -> dfs ~eager:false ~rewrite:true ~k:max_int
    | Early_stop k ->
        if n - k > max_enum_bits then guard_enumeration n;
        dfs ~eager:true ~rewrite:true ~k
    | Fdd ->
        let fdd = match fdd with Some f -> f | None -> fdd_for set in
        let compiled = if Pc_predicate.Fdd.n_preds fdd = Pc_set.size set then fdd else compile set in
        fdd_path ?budget compiled query_pred (emit_met sink rows)
  in
  (match run () with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Sat.flush bg.tally;
      Printexc.raise_with_backtrace e bt);
  Sat.flush bg.tally;
  let elapsed = Pc_util.Clock.elapsed_s ~since:t0 in
  let n_cells = !(bg.emitted) in
  Counter.add c_cells n_cells;
  Counter.add c_witness_hits !(bg.witness_hits);
  Counter.add c_admitted !(bg.admitted);
  {
    sat_calls = bg.tally.Sat.searches;
    atom_ops = bg.tally.Sat.ops;
    n_cells;
    admitted_unchecked = !(bg.admitted);
    witness_hits = !(bg.witness_hits);
    elapsed;
  }

let traced strategy run =
  Counter.incr c_decompositions;
  (* the branch keeps the disabled path closure-free *)
  if Trace.enabled () then
    Trace.with_span ~name:"decompose"
      ~attrs:[ ("strategy", strategy_name strategy) ]
      (fun () ->
        let stats = run () in
        Trace.add_attr "cells" (string_of_int stats.n_cells);
        Trace.add_attr "sat_calls" (string_of_int stats.sat_calls);
        Trace.add_attr "witness_hits" (string_of_int stats.witness_hits);
        Trace.add_attr "atom_ops" (string_of_int stats.atom_ops);
        stats)
  else run ()

let decompose ?budget ?fdd ?(strategy = Dfs_rewrite) ?(query_pred = Pred.tt) set =
  let cells = ref [] in
  let stats =
    traced strategy (fun () ->
        decompose_run ?budget ?fdd ~strategy ~query_pred set (Cells (fun c -> cells := c :: !cells)))
  in
  (List.rev !cells, stats)

let regions ?budget ?fdd ?(strategy = Dfs_rewrite) ~tighten ~query ~query_pred set keep =
  traced strategy (fun () ->
      decompose_run ?budget ?fdd ~strategy ~query_pred set (Regions (tighten, query, keep)))
