(* Interval FDDs: ordered-attribute decision diagrams over predicate sets.

   A compiled diagram tests attributes in a fixed global order (ascending
   attribute name). Numeric nodes carry an edge list whose intervals
   partition the whole real line (ascending, disjoint, gap-free);
   categorical nodes carry sorted explicit cases plus a default edge for
   the open string universe. Leaves are the sorted sets of predicate
   indices satisfied along the path, so every root-to-leaf path is a
   non-empty product box and the distinct non-empty leaves reachable
   under a query are exactly the satisfiable cells of the decomposition
   (paper §4.1).

   Nodes are hash-consed through a per-compile unit table: structural
   equality collapses to physical equality, which makes the memoized
   union apply O(shared structure) and gives canonical leaf identities
   for free. Keeping the unit table inside [compiled] (rather than
   global) means a compiled diagram is immutable after [compile] and can
   be walked concurrently from server threads without locking. *)

module I = Pc_interval.Interval
module Counter = Pc_obs.Registry.Counter

let c_compiles = Counter.make "fdd.compiles"
let c_nodes = Counter.make "fdd.nodes"

type node =
  | Leaf of int list  (** sorted indices of predicates satisfied here *)
  | Num of string * (I.t * t) array
      (** disjoint ascending intervals covering ℝ *)
  | Cat of string * (string * t) array * t
      (** sorted explicit cases, then the default edge *)

and t = { id : int; node : node }

(* Hash-cons key: children by id so lookup cost is independent of
   subtree size. *)
type key =
  | KLeaf of int list
  | KNum of string * (I.t * int) array
  | KCat of string * (string * int) array * int

type manager = { tbl : (key, t) Hashtbl.t; mutable next : int }
type compiled = { root : t; n_preds : int; mgr : manager }

let key_of_node = function
  | Leaf ids -> KLeaf ids
  | Num (a, edges) -> KNum (a, Array.map (fun (iv, c) -> (iv, c.id)) edges)
  | Cat (a, cases, d) ->
      KCat (a, Array.map (fun (s, c) -> (s, c.id)) cases, d.id)

let mk mgr node =
  let k = key_of_node node in
  match Hashtbl.find_opt mgr.tbl k with
  | Some t -> t
  | None ->
      let t = { id = mgr.next; node } in
      mgr.next <- mgr.next + 1;
      Hashtbl.add mgr.tbl k t;
      t

let mk_leaf mgr ids = mk mgr (Leaf ids)

(* [edges] must be an ascending partition of ℝ. Adjacent edges with the
   same (hash-consed, hence physically equal) child are coalesced with
   [hull] — sound because a partition's neighbours always abut — and a
   single surviving edge means the attribute does not discriminate. *)
let mk_num mgr attr edges =
  let coalesced =
    List.fold_left
      (fun acc (iv, c) ->
        match acc with
        | (iv', c') :: rest when c' == c -> (I.hull iv' iv, c') :: rest
        | _ -> (iv, c) :: acc)
      [] edges
    |> List.rev
  in
  match coalesced with
  | [ (_, c) ] -> c
  | edges -> mk mgr (Num (attr, Array.of_list edges))

let mk_cat mgr attr cases default =
  let cases = List.filter (fun (_, c) -> not (c == default)) cases in
  let cases = List.sort (fun (a, _) (b, _) -> String.compare a b) cases in
  match cases with
  | [] -> default
  | _ -> mk mgr (Cat (attr, Array.of_list cases, default))

let kind_error attr =
  invalid_arg
    (Printf.sprintf "Fdd: attribute %s used as both numeric and categorical"
       attr)

(* ---- Per-predicate constraint extraction ---------------------------- *)

(* A conjunction of atoms collapses to at most one constraint per
   attribute. [None] from [pred_constraints] means the predicate is
   unsatisfiable on its own (over independent attributes — the same
   notion of satisfiability the DFS decomposer's solver uses). *)
type constr =
  | Cnum of I.t
  | Cin of string list  (** sorted, non-empty *)
  | Cnot_in of string list  (** sorted *)

(* Polymorphic hashing treats -0. and 0. differently even though (=)
   equates them; normalize endpoints so hash-cons keys are stable. *)
let norm_ep = function
  | I.Closed x -> I.Closed (x +. 0.)
  | I.Open x -> I.Open (x +. 0.)
  | e -> e

let norm_iv iv = I.make_exn (norm_ep iv.I.lo) (norm_ep iv.I.hi)

let diff_sorted xs ys = List.filter (fun x -> not (List.mem x ys)) xs
let inter_sorted xs ys = List.filter (fun x -> List.mem x ys) xs

let conj_constr attr c1 c2 =
  match (c1, c2) with
  | Cnum a, Cnum b -> (
      match I.intersect a b with Some iv -> Some (Cnum iv) | None -> None)
  | Cin a, Cin b -> (
      match inter_sorted a b with [] -> None | l -> Some (Cin l))
  | Cin a, Cnot_in b | Cnot_in b, Cin a -> (
      match diff_sorted a b with [] -> None | l -> Some (Cin l))
  | Cnot_in a, Cnot_in b ->
      Some (Cnot_in (List.sort_uniq String.compare (a @ b)))
  | Cnum _, (Cin _ | Cnot_in _) | (Cin _ | Cnot_in _), Cnum _ ->
      kind_error attr

let constr_of_atom = function
  | Atom.Num_range (_, iv) -> Cnum (norm_iv iv)
  | Atom.Cat_eq (_, s) -> Cin [ s ]
  | Atom.Cat_neq (_, s) -> Cnot_in [ s ]
  | Atom.Cat_in (_, ss) -> Cin (List.sort_uniq String.compare ss)
  | Atom.Cat_not_in (_, ss) -> Cnot_in (List.sort_uniq String.compare ss)

(* Constraints sorted by attribute name — the FDD's global order. *)
let pred_constraints (p : Pred.t) : (string * constr) list option =
  let exception Unsat in
  try
    let acc =
      List.fold_left
        (fun acc atom ->
          let a = Atom.attr atom in
          let c = constr_of_atom atom in
          match c with
          | Cin [] -> raise Unsat
          | _ -> (
              match List.assoc_opt a acc with
              | None -> (a, c) :: acc
              | Some c0 -> (
                  match conj_constr a c0 c with
                  | None -> raise Unsat
                  | Some c' -> (a, c') :: List.remove_assoc a acc)))
        [] p
    in
    Some
      (List.sort (fun (a, _) (b, _) -> String.compare a b) acc)
  with Unsat -> None

(* ---- Building a single predicate's chain ---------------------------- *)

let constr_node mgr ~yes ~no (attr, c) =
  match c with
  | Cnum iv ->
      let below, above =
        match I.complement iv with
        | [] -> ([], [])
        | [ c ] -> if I.compare_lo c iv < 0 then ([ c ], []) else ([], [ c ])
        | [ c1; c2 ] -> ([ c1 ], [ c2 ])
        | _ -> assert false
      in
      let edge b = (b, no) in
      mk_num mgr attr
        (List.map edge below @ [ (iv, yes) ] @ List.map edge above)
  | Cin ss -> mk_cat mgr attr (List.map (fun s -> (s, yes)) ss) no
  | Cnot_in ss -> mk_cat mgr attr (List.map (fun s -> (s, no)) ss) yes

let pred_fdd mgr ~idx constraints =
  let no = mk_leaf mgr [] in
  let yes = mk_leaf mgr [ idx ] in
  List.fold_right (fun ac acc -> constr_node mgr ~yes:acc ~no ac) constraints
    yes

(* ---- Union apply ---------------------------------------------------- *)

let union_ids xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | x :: xt, y :: yt ->
        if x < y then x :: go xt ys
        else if x > y then y :: go xs yt
        else x :: go xt yt
  in
  go xs ys

(* Zip two ascending partitions of ℝ into their common refinement,
   combining children with [f]. Both covers start at -∞ and the pointer
   with the smaller upper endpoint advances, so the current pair always
   overlaps. *)
let merge_partitions f e1 e2 =
  let n1 = Array.length e1 and n2 = Array.length e2 in
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < n1 && !j < n2 do
    let iv1, c1 = e1.(!i) and iv2, c2 = e2.(!j) in
    (match I.intersect iv1 iv2 with
    | Some iv -> out := (iv, f c1 c2) :: !out
    | None -> assert false);
    let c = I.compare_hi iv1 iv2 in
    if c <= 0 then incr i;
    if c >= 0 then incr j
  done;
  List.rev !out

let attr_of = function Leaf _ -> None | Num (a, _) | Cat (a, _, _) -> Some a

let find_case cases default s =
  match
    Array.fold_left
      (fun found (l, c) -> if String.equal l s then Some c else found)
      None cases
  with
  | Some c -> c
  | None -> default

let rec union mgr memo a b =
  if a == b then a
  else
    let k = if a.id < b.id then (a.id, b.id) else (b.id, a.id) in
    match Hashtbl.find_opt memo k with
    | Some r -> r
    | None ->
        let r = union_raw mgr memo a b in
        Hashtbl.add memo k r;
        r

and union_raw mgr memo a b =
  let recur x y = union mgr memo x y in
  match (a.node, b.node) with
  | Leaf xs, Leaf ys -> mk_leaf mgr (union_ids xs ys)
  | an, bn -> (
      (* The smaller attribute splits first; the other side rides along
         unchanged on every edge. *)
      let first =
        match (attr_of an, attr_of bn) with
        | None, None -> assert false
        | Some _, None -> `A
        | None, Some _ -> `B
        | Some x, Some y ->
            let c = String.compare x y in
            if c < 0 then `A else if c > 0 then `B else `Both
      in
      match (first, an, bn) with
      | `A, Num (attr, edges), _ ->
          mk_num mgr attr
            (List.map (fun (iv, c) -> (iv, recur c b)) (Array.to_list edges))
      | `A, Cat (attr, cases, d), _ ->
          mk_cat mgr attr
            (List.map (fun (s, c) -> (s, recur c b)) (Array.to_list cases))
            (recur d b)
      | `B, _, Num (attr, edges) ->
          mk_num mgr attr
            (List.map (fun (iv, c) -> (iv, recur a c)) (Array.to_list edges))
      | `B, _, Cat (attr, cases, d) ->
          mk_cat mgr attr
            (List.map (fun (s, c) -> (s, recur a c)) (Array.to_list cases))
            (recur a d)
      | `Both, Num (attr, e1), Num (_, e2) ->
          mk_num mgr attr (merge_partitions recur e1 e2)
      | `Both, Cat (attr, c1, d1), Cat (_, c2, d2) ->
          let labels =
            List.sort_uniq String.compare
              (Array.to_list (Array.map fst c1)
              @ Array.to_list (Array.map fst c2))
          in
          mk_cat mgr attr
            (List.map
               (fun s ->
                 (s, recur (find_case c1 d1 s) (find_case c2 d2 s)))
               labels)
            (recur d1 d2)
      | `Both, Num (attr, _), Cat _ | `Both, Cat (attr, _, _), Num _ ->
          kind_error attr
      | _ -> assert false)

(* ---- Compile -------------------------------------------------------- *)

let compile preds =
  let mgr = { tbl = Hashtbl.create 256; next = 0 } in
  let empty = mk_leaf mgr [] in
  let per_pred =
    Array.mapi
      (fun i p ->
        match pred_constraints p with
        | None -> empty
        | Some cs -> pred_fdd mgr ~idx:i cs)
      preds
  in
  (* Balanced reduce keeps intermediate diagrams small and the apply
     memo effective across sibling merges. *)
  let memo = Hashtbl.create 256 in
  let rec reduce lo hi =
    if hi <= lo then empty
    else if hi - lo = 1 then per_pred.(lo)
    else
      let mid = (lo + hi) / 2 in
      union mgr memo (reduce lo mid) (reduce mid hi)
  in
  let root = reduce 0 (Array.length preds) in
  Counter.incr c_compiles;
  Counter.add c_nodes mgr.next;
  { root; n_preds = Array.length preds; mgr }

let n_preds t = t.n_preds
let n_nodes t = t.mgr.next

(* ---- Cell enumeration ----------------------------------------------- *)

(* DFS emission order of the reference decomposer: positive branch
   first, i.e. between two sorted active sets the one containing the
   smaller uncommon index comes first, and a set that ends is *later*
   than one that continues (the continuation includes an index the
   other excludes). *)
let rec dfs_order a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> 1
  | _ :: _, [] -> -1
  | x :: a', y :: b' ->
      let c = Int.compare x y in
      if c <> 0 then c else dfs_order a' b'

(* Calls [leaf ids] once for every distinct non-empty leaf reachable
   under the query's per-attribute constraints, depth first with edges
   in order. Reachability under such constraints is a global property
   of a node, so one visited mark per node id is sound even though a
   node is shared across many paths. *)
let walk qcs t leaf =
  (* each attribute's constraint, as the option [constr] returns *)
  let qcs = List.map (fun (a, c) -> (a, Some c)) qcs in
  let rec constr attr = function
    | [] -> None
    | (a, c) :: rest -> if String.equal a attr then c else constr attr rest
  in
  let seen = Bytes.make t.mgr.next '\000' in
  let rec go n =
    if Bytes.unsafe_get seen n.id = '\000' then begin
      Bytes.unsafe_set seen n.id '\001';
      match n.node with
      | Leaf [] -> ()
      | Leaf ids -> leaf ids
      | Num (attr, edges) -> (
          match constr attr qcs with
          | None -> Array.iter (fun (_, c) -> go c) edges
          | Some (Cnum q) -> edges_over q edges
          | Some (Cin _ | Cnot_in _) -> kind_error attr)
      | Cat (attr, cases, default) -> (
          match constr attr qcs with
          | None ->
              Array.iter (fun (_, c) -> go c) cases;
              go default
          | Some (Cin ss) ->
              let covered = ref 0 in
              Array.iter
                (fun (l, c) ->
                  if List.mem l ss then begin
                    incr covered;
                    go c
                  end)
                cases;
              if !covered < List.length ss then go default
          | Some (Cnot_in ss) ->
              Array.iter (fun (l, c) -> if not (List.mem l ss) then go c) cases;
              (* open string universe: a value outside cases ∪ ss
                 always exists, so the default stays reachable *)
              go default
          | Some (Cnum _) -> kind_error attr)
    end
  (* The edges that meet [q]. They ascend and cover ℝ, so those that
     lie wholly below [q] come first: a binary search skips them, and
     the scan stops at the first edge past [q]. *)
  and edges_over q edges =
    let below k =
      let iv = fst edges.(k) in
      (not (I.overlaps iv q)) && I.compare_lo iv q < 0
    in
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if below mid then first (mid + 1) hi else first lo mid
    in
    let rec scan k =
      if k < Array.length edges then begin
        let iv, c = edges.(k) in
        if I.overlaps iv q then begin
          go c;
          scan (k + 1)
        end
      end
    in
    scan (first 0 (Array.length edges))
  in
  go t.root

let cells ?(query = Pred.tt) t =
  match pred_constraints query with
  | None -> []
  | Some qcs ->
      let leaves = ref [] in
      walk qcs t (fun ids -> leaves := ids :: !leaves);
      List.sort dfs_order !leaves

(* The union of the reachable cells' active sets, marked per PC as the
   walk meets each leaf: no cell list, no sort, no merge. *)
let active_pcs ?(query = Pred.tt) t =
  match pred_constraints query with
  | None -> []
  | Some qcs ->
      let active = Array.make t.n_preds false in
      let rec mark = function
        | [] -> ()
        | j :: rest ->
            active.(j) <- true;
            mark rest
      in
      walk qcs t mark;
      let acc = ref [] in
      for j = t.n_preds - 1 downto 0 do
        if active.(j) then acc := j :: !acc
      done;
      !acc

(* ---- Row routing ---------------------------------------------------- *)

let route t schema row =
  let rec go n =
    match n.node with
    | Leaf ids -> ids
    | Num (attr, edges) ->
        let x = Pc_data.Value.as_num row.(Pc_data.Schema.index schema attr) in
        if Float.is_nan x then invalid_arg "Fdd.route: NaN attribute value";
        let rec find i =
          let iv, c = edges.(i) in
          if I.contains iv x then go c else find (i + 1)
        in
        find 0
    | Cat (attr, cases, default) ->
        let s = Pc_data.Value.as_str row.(Pc_data.Schema.index schema attr) in
        let rec find i =
          if i >= Array.length cases then go default
          else
            let l, c = cases.(i) in
            let cc = String.compare s l in
            if cc = 0 then go c else if cc < 0 then go default else find (i + 1)
        in
        find 0
  in
  go t.root
