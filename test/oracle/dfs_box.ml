module Pred = Pc_predicate.Pred
module Atom = Pc_predicate.Atom
module Box = Pc_predicate.Box
module Cnf = Pc_predicate.Cnf
module Sat = Pc_predicate.Sat
module B = Pc_budget.Budget
module Pc = Pc_core.Pc
module Pc_set = Pc_core.Pc_set
open Pc_core.Cells

(* The resumable solver state, as [Sat] had it. Atom operations go to the
   decomposition's tally instead of the global counter. *)
module State = struct
  type state = {
    box : Box.t;
    pending : Cnf.t;
    witness : Box.t option;
  }

  let bump_atoms (tally : Sat.tally) n = tally.ops <- tally.ops + n

  let certified st = Option.is_some st.witness

  let start ?(box = Box.top) () = { box; pending = []; witness = Some box }

  let assume_pred tally st pred =
    let n = List.length pred in
    bump_atoms tally n;
    match Box.add_pred st.box pred with
    | None -> None
    | Some box ->
        let witness =
          match st.witness with
          | None -> None
          | Some w ->
              bump_atoms tally n;
              Box.add_pred w pred
        in
        Some { box; pending = st.pending; witness }

  let assume_clause tally st clause =
    bump_atoms tally (List.length clause);
    let alive =
      List.filter (fun atom -> Option.is_some (Box.add_atom st.box atom)) clause
    in
    match alive with
    | [] -> None
    | [ atom ] ->
        (* unit clause: deterministic, fold it into the box *)
        let box =
          match Box.add_atom st.box atom with
          | Some b -> b
          | None -> assert false (* alive above *)
        in
        let witness =
          match st.witness with
          | None -> None
          | Some w ->
              bump_atoms tally 1;
              Box.add_atom w atom
        in
        Some { box; pending = st.pending; witness }
    | _ when List.exists (fun atom -> Pred.implies_box st.box [ atom ]) alive ->
        (* the box already entails one disjunct: the clause is vacuous and
           the inherited witness (if any) still satisfies everything *)
        Some st
    | _ ->
        let witness =
          match st.witness with
          | None -> None
          | Some w ->
              bump_atoms tally (List.length alive);
              List.find_map (fun atom -> Box.add_atom w atom) alive
        in
        Some { st with pending = alive :: st.pending; witness }

  let uncertify st = { st with witness = None }

  let solve_state tally st =
    match st.witness with
    | Some _ -> Some st
    | None -> (
        match Sat.solve ~tally ~box:st.box st.pending with
        | None -> None
        | Some w -> Some { st with witness = Some w })
end

open State

let max_enum_bits = 24

let guard_enumeration n =
  if n > max_enum_bits then raise (Pc_core.Cells.Enumeration_guard n)

type budgeted = {
  decide : eager:bool -> state -> state option;
  emit : int list list ref -> int list -> unit;
  admitted : int ref;
  witness_hits : int ref;
}

let max_admitted = 4096

let budgeted tally budget =
  let admit = ref false in
  let admitted = ref 0 in
  let witness_hits = ref 0 in
  let solve_charged st =
    match budget with
    | None -> solve_state tally st
    | Some b ->
        if B.out_of_time b then raise (B.Exhausted B.Deadline)
        else if not (B.take_sat b) then begin
          admit := true;
          Some st
        end
        else solve_state tally st
  in
  let decide ~eager st =
    if !admit then Some st
    else if eager then solve_charged (uncertify st)
    else if certified st then begin
      incr witness_hits;
      Some st
    end
    else solve_charged st
  in
  let emit cells cell =
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
    cells := cell :: !cells
  in
  { decide; emit; admitted; witness_hits }

let dfs tally bg ~rewrite preds qpred =
  let n = Array.length preds in
  let eager = not rewrite in
  let neg_clause = Array.map (fun p -> List.concat_map Atom.negate p) preds in
  let cells = ref [] in
  let rec go i st active =
    if i = n then begin
      match active with
      | [] -> () (* closure excludes the all-negative region *)
      | _ -> bg.emit cells (List.rev active)
    end
    else begin
      let pos_sat =
        match assume_pred tally st preds.(i) with
        | None -> false
        | Some st' -> (
            match bg.decide ~eager st' with
            | None -> false
            | Some st'' ->
                go (i + 1) st'' (i :: active);
                true)
      in
      match assume_clause tally st neg_clause.(i) with
      | None -> () (* the negative region is empty *)
      | Some st' ->
          if rewrite && not pos_sat then
            (* the rewrite certificate: skip the solver search *)
            go (i + 1) st' active
          else begin
            match bg.decide ~eager st' with
            | Some st'' -> go (i + 1) st'' active
            | None -> ()
          end
    end
  in
  (match Option.bind (assume_pred tally (start ()) qpred) (bg.decide ~eager) with
  | Some st -> go 0 st []
  | None -> ());
  List.rev !cells

let early_stop tally bg ~k preds qpred =
  let n = Array.length preds in
  if n - k > max_enum_bits then guard_enumeration n;
  let neg_clause = Array.map (fun p -> List.concat_map Atom.negate p) preds in
  let cells = ref [] in
  let emit = function [] -> () | active -> bg.emit cells (List.rev active) in
  (* beyond the verified prefix: admit both branches blindly *)
  let rec go_blind i active =
    if i = n then emit active
    else begin
      go_blind (i + 1) (i :: active);
      go_blind (i + 1) active
    end
  in
  let rec go i st active =
    if i = n then emit active
    else if i >= k then go_blind i active
    else begin
      let pos_sat =
        match assume_pred tally st preds.(i) with
        | None -> false
        | Some st' -> (
            match bg.decide ~eager:true st' with
            | None -> false
            | Some st'' ->
                go (i + 1) st'' (i :: active);
                true)
      in
      match assume_clause tally st neg_clause.(i) with
      | None -> ()
      | Some st' ->
          if not pos_sat then go (i + 1) st' active
          else begin
            match bg.decide ~eager:true st' with
            | Some st'' -> go (i + 1) st'' active
            | None -> ()
          end
    end
  in
  if k <= 0 then go_blind 0 []
  else begin
    match
      Option.bind (assume_pred tally (start ()) qpred) (bg.decide ~eager:true)
    with
    | Some st -> go 0 st []
    | None -> ()
  end;
  List.rev !cells

let decompose ?budget ~strategy ~query_pred set =
  let preds =
    Array.of_list (List.map (fun (pc : Pc.t) -> pc.Pc.pred) (Pc_set.pcs set))
  in
  let tally = Sat.tally () in
  let t0 = Pc_util.Clock.now () in
  let bg = budgeted tally budget in
  let cells =
    match strategy with
    | Dfs -> dfs tally bg ~rewrite:false preds query_pred
    | Dfs_rewrite -> dfs tally bg ~rewrite:true preds query_pred
    | Early_stop k -> early_stop tally bg ~k preds query_pred
    | Naive | Fdd -> invalid_arg "Dfs_box.decompose: not a DFS strategy"
  in
  ( cells,
    ({
      sat_calls = tally.Sat.searches;
      atom_ops = tally.Sat.ops;
      n_cells = List.length cells;
      admitted_unchecked = !(bg.admitted);
      witness_hits = !(bg.witness_hits);
      elapsed = Pc_util.Clock.elapsed_s ~since:t0;
    } : stats) )
