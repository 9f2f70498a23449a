module I = Pc_interval.Interval
module Box = Pc_predicate.Box
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module Sat = Pc_predicate.Sat

(* Intervals stored unboxed: interval [i] is [lo.(i)], [hi.(i)], with bit
   0 of [fl.[i]] set when the lower end is open and bit 1 when the upper
   end is. An infinite end is an open infinity, which the comparisons
   below order exactly as [Interval] orders [Neg_inf]/[Pos_inf]. *)
type block = { lo : float array; hi : float array; fl : Bytes.t }

(* [n] copies of [Interval.full] *)
let block n =
  { lo = Array.make n neg_infinity; hi = Array.make n infinity; fl = Bytes.make n '\003' }

(* A loop, not three C blits: rows are a few columns wide. *)
let blit src si dst di n =
  for k = 0 to n - 1 do
    dst.lo.(di + k) <- src.lo.(si + k);
    dst.hi.(di + k) <- src.hi.(si + k);
    Bytes.set dst.fl (di + k) (Bytes.get src.fl (si + k))
  done

let[@inline] flags b i = Char.code (Bytes.unsafe_get b.fl i)

let store b i (iv : I.t) =
  b.lo.(i) <- I.lo_float iv;
  b.hi.(i) <- I.hi_float iv;
  let lo_open = match iv.I.lo with I.Closed _ -> 0 | _ -> 1
  and hi_open = match iv.I.hi with I.Closed _ -> 0 | _ -> 2 in
  Bytes.set b.fl i (Char.chr (lo_open lor hi_open))

let get b i =
  let f = flags b i and lo = b.lo.(i) and hi = b.hi.(i) in
  let lo =
    if lo = neg_infinity then I.Neg_inf else if f land 1 <> 0 then I.Open lo else I.Closed lo
  and hi = if hi = infinity then I.Pos_inf else if f land 2 <> 0 then I.Open hi else I.Closed hi in
  I.make_exn lo hi

(* [d.(i) <- d.(i) ∩ s.(j)] with [Interval.intersect]'s tie rules: the
   accumulator keeps a tied end; an incoming end replaces it when it is
   stronger — larger (lower end) or smaller (upper end), or equal and
   open against closed — and then brings its own float and flag. *)
let[@inline] meet d i s j =
  let f = flags d i and g = flags s j in
  let x = s.lo.(j) and y = d.lo.(i) in
  let f =
    if x > y || (x = y && g land 1 <> 0 && f land 1 = 0) then begin
      d.lo.(i) <- x;
      f land 2 lor (g land 1)
    end
    else f
  in
  let x = s.hi.(j) and y = d.hi.(i) in
  let f =
    if x < y || (x = y && g land 2 <> 0 && f land 2 = 0) then begin
      d.hi.(i) <- x;
      f land 1 lor (g land 2)
    end
    else f
  in
  Bytes.unsafe_set d.fl i (Char.unsafe_chr f)

let meet_range d di s si n =
  for k = 0 to n - 1 do
    meet d (di + k) s (si + k)
  done

(* [d.(i) <- a.(ia) ∩ s.(j)], [a] the accumulator: [meet] on a copy of
   [a.(ia)], in one pass. *)
let[@inline] meet_into d i a ia s j =
  let f = flags a ia and g = flags s j in
  let x = s.lo.(j) and y = a.lo.(ia) in
  let take = x > y || (x = y && g land 1 <> 0 && f land 1 = 0) in
  d.lo.(i) <- (if take then x else y);
  let f = if take then f land 2 lor (g land 1) else f in
  let x = s.hi.(j) and y = a.hi.(ia) in
  let take = x < y || (x = y && g land 2 <> 0 && f land 2 = 0) in
  d.hi.(i) <- (if take then x else y);
  let f = if take then f land 1 lor (g land 2) else f in
  Bytes.unsafe_set d.fl i (Char.unsafe_chr f)

let[@inline] nonempty b i =
  if flags b i land 3 <> 0 then b.lo.(i) < b.hi.(i) else b.lo.(i) <= b.hi.(i)

let rec all_nonempty b i n = n = 0 || (nonempty b i && all_nonempty b (i + 1) (n - 1))

(* A lower end [x] (open when [xo]) at or below an upper end [y]. *)
let[@inline] below (x : float) xo (y : float) yo = x < y || (x = y && not (xo || yo))

(* Two non-empty intervals intersect iff each one's lower end is at or
   below the other's upper end. *)
let[@inline] meets_at a i b j =
  let f = flags a i and g = flags b j in
  below a.lo.(i) (f land 1 <> 0) b.hi.(j) (g land 2 <> 0)
  && below b.lo.(j) (g land 1 <> 0) a.hi.(i) (f land 2 <> 0)

(* [a.(i) ⊆ b.(j)]: [b]'s ends are no stronger than [a]'s, as
   [Interval.subset] compares them. *)
let[@inline] within a i b j =
  let f = flags a i and g = flags b j in
  let (x : float) = b.lo.(j) and (y : float) = a.lo.(i) in
  (x < y || (x = y && (g land 1 = 0 || f land 1 <> 0)))
  &&
  let (x : float) = b.hi.(j) and (y : float) = a.hi.(i) in
  x > y || (x = y && (g land 2 = 0 || f land 2 <> 0))

let rec all_meet a i b j n = n = 0 || (meets_at a i b j && all_meet a (i + 1) b (j + 1) (n - 1))

(* The DFS's data, computed on first use: sets that are only ever
   bounded without a decomposition (a server's warm path) or through the
   FDD never pay for it. *)
type compiled = {
  fcols : int array;
      (** the decomposition's columns, those the predicates range over:
          frame column [c] is table column [fcols.(c)] *)
  fhull : block;  (** [hull] on the frame columns: row [r], column [c] at [r * fw + c] *)
  n_atoms : int array;  (** atoms in the row's predicate *)
  neg_off : int array;
      (** row [r]'s negated clause is compiled atoms [neg_off.(r)] to
          [neg_off.(r + 1) - 1], in clause order *)
  neg_col : int array;  (** a compiled atom's frame column; [-1] when categorical *)
  neg_iv : block;  (** a numeric compiled atom's interval *)
  neg_atom : Atom.t array;  (** the compiled atom itself *)
}

type t = {
  cols : string array;
  width : int;
  hcols : int array;
      (** the columns some predicate ranges over, ascending: a hull row
          is full on every other column *)
  boxed : bool array;
  hull : block;  (** row [r], column [k] at [r * width + k] *)
  nu : block;
  cats : Atom.t list array;  (** a satisfiable predicate's categorical atoms *)
  cat_boxes : Box.t array;  (** their box ([Box.top] when none) *)
  num_attrs : string list;  (** attributes the predicates range over *)
  cat_attrs : string list;  (** attributes the predicates test categorically *)
  preds : Pred.t array;
  compiled : compiled option Atomic.t;
      (** computed once; racing threads compute the same value *)
}

let is_cat = function Atom.Num_range _ -> false | _ -> true
let none = function [] -> true | _ :: _ -> false

let make (pcs : Pc.t array) =
  let n = Array.length pcs in
  let preds = Array.map (fun (pc : Pc.t) -> pc.Pc.pred) pcs in
  let boxes = Array.map Box.of_pred preds in
  let atoms = List.concat (Array.to_list preds) in
  let attrs_of p = List.sort_uniq String.compare (List.map Atom.attr (List.filter p atoms)) in
  let num_attrs = attrs_of (Fun.negate is_cat) and cat_attrs = attrs_of is_cat in
  List.iter (fun a -> if List.mem a cat_attrs then Box.kind_clash a) num_attrs;
  let cols =
    Array.of_list
      (List.sort_uniq String.compare
         (num_attrs @ List.concat_map Pc.value_attrs (Array.to_list pcs)))
  in
  let width = Array.length cols in
  let hcols =
    Array.of_list (List.filter (fun k -> List.mem cols.(k) num_attrs) (List.init width Fun.id))
  in
  let hull = block (n * width) and nu = block (n * width) in
  Array.iteri
    (fun r (pc : Pc.t) ->
      Array.iteri
        (fun k a ->
          store nu ((r * width) + k) (Pc.value_interval pc a);
          Option.iter (fun b -> store hull ((r * width) + k) (Box.num_interval b a)) boxes.(r))
        cols)
    pcs;
  let cats =
    Array.mapi (fun r pred -> if Option.is_some boxes.(r) then List.filter is_cat pred else []) preds
  in
  {
    cols;
    width;
    hcols;
    boxed = Array.map Option.is_some boxes;
    hull;
    nu;
    cats;
    cat_boxes = Array.map (fun atoms -> Option.get (Box.of_pred atoms)) cats;
    num_attrs;
    cat_attrs;
    preds;
    compiled = Atomic.make None;
  }

let cached slot compute =
  match Atomic.get slot with
  | Some v -> v
  | None ->
      let v = compute () in
      Atomic.set slot (Some v);
      v

let compile t =
  let n = Array.length t.preds in
  (* frame column [c] is the attribute [fattrs.(c)] *)
  let fattrs = Array.of_list t.num_attrs in
  let fw = Array.length fattrs in
  let rec index names a c = if String.equal names.(c) a then c else index names a (c + 1) in
  let fcols = t.hcols in
  let fhull = block (n * fw) in
  for r = 0 to n - 1 do
    Array.iteri (fun c k -> blit t.hull ((r * t.width) + k) fhull ((r * fw) + c) 1) fcols
  done;
  (* each row's one negated clause *)
  let neg_clauses = Array.map (List.concat_map Atom.negate) t.preds in
  let neg_off = Array.make (n + 1) 0 in
  Array.iteri (fun r c -> neg_off.(r + 1) <- neg_off.(r) + List.length c) neg_clauses;
  let neg_atom = Array.of_list (List.concat (Array.to_list neg_clauses)) in
  let neg_iv = block (Array.length neg_atom) in
  let neg_col =
    Array.mapi
      (fun j -> function
        | Atom.Num_range (a, iv) ->
            store neg_iv j iv;
            index fattrs a 0
        | _ -> -1)
      neg_atom
  in
  { fcols; fhull; n_atoms = Array.map List.length t.preds; neg_off; neg_col; neg_iv; neg_atom }

let compiled t = cached t.compiled (fun () -> compile t)

let cols t = t.cols

let col t a =
  let rec find k = if k = t.width then -1 else if String.equal t.cols.(k) a then k else find (k + 1) in
  find 0

let boxed t r = t.boxed.(r)
let value_lo t r k = t.nu.lo.((r * t.width) + k)
let value_hi t r k = t.nu.hi.((r * t.width) + k)

let cat_meets box = function [] -> true | atoms -> Option.is_some (Box.add_pred box atoms)

let meets t r s =
  all_meet t.hull (r * t.width) t.hull (s * t.width) t.width
  && (none t.cats.(r) || cat_meets t.cat_boxes.(r) t.cats.(s))

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

type query = {
  q : block;  (** the query box's range per column *)
  q_atoms : int;  (** atoms in the query predicate *)
  box : Box.t option;  (** the whole query box; [None] when empty *)
  q_cats : Atom.t list;
  q_cat_box : Box.t;
}

let query t pred =
  List.iter
    (fun atom ->
      let a = Atom.attr atom in
      if List.mem a (if is_cat atom then t.num_attrs else t.cat_attrs) then Box.kind_clash a)
    pred;
  let box = Box.of_pred pred in
  let q = block t.width in
  let q_cats = if Option.is_some box then List.filter is_cat pred else [] in
  Option.iter (fun b -> Array.iteri (fun k a -> store q k (Box.num_interval b a)) t.cols) box;
  { q; q_atoms = List.length pred; box; q_cats; q_cat_box = Option.get (Box.of_pred q_cats) }

let overlaps t q r =
  Option.is_some q.box
  && all_meet q.q 0 t.hull (r * t.width) t.width
  && (none t.cats.(r) || cat_meets t.cat_boxes.(r) q.q_cats)

let outside q a = match q.box with Some b -> Box.num_interval b a | None -> I.full

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)
(* ------------------------------------------------------------------ *)

type acc = block

let acc t = block t.width
let lo (b : acc) k = b.lo.(k)
let hi (b : acc) k = b.hi.(k)

let rec cat_fold t rows box = function
  | [] -> true
  | j :: rest -> (
      match t.cats.(rows.(j)) with
      | [] -> cat_fold t rows box rest
      | atoms -> (
          match Box.add_pred box atoms with
          | None -> false
          | Some box -> cat_fold t rows box rest))

(* Level [d] holds the meets of the [d] PCs chosen so far, in the order
   they were chosen: a ν row from full and, under [tighten], a clip row
   from the query. A step down writes level [d + 1] from level [d] and
   one PC's rows; a step that chooses nothing writes nothing. Meeting
   keeps the first strongest end in fold order, so a level equals the
   per-cell fold of the same rows, [-0.] against [0.] included. Meeting
   a full interval changes nothing, so a clip row only holds the columns
   hulls range over ([hcols]); on every other column the clip is the
   query's range, which a leaf meets only where it is not full
   ([qcols]), and which is never empty when the query box is not. *)
type regions = {
  rt : t;
  rrows : int array;
  tighten : bool;
  rq : query;
  fw : int;  (** hull columns *)
  qcols : int array;  (** the other columns where the query is not full *)
  lnu : block;  (** level [d], column [k] at [d * width + k] *)
  lclip : block;  (** level [d], hull column [c] at [d * fw + c] *)
  lboxed : Bytes.t;  (** ['\001'] when every PC chosen up to level [d] is satisfiable *)
  lcats : int array;  (** sides with categorical atoms: the query and the chosen PCs *)
  values : acc;
}

let regions t ~rows ~tighten q ~depth =
  let w = t.width and fw = Array.length t.hcols and m = depth + 1 in
  let lclip = block (if tighten then m * fw else 0) in
  let qcols =
    if not tighten then [||]
    else begin
      Array.iteri (fun c k -> blit q.q k lclip c 1) t.hcols;
      let full k = q.q.lo.(k) = neg_infinity && q.q.hi.(k) = infinity in
      Array.of_list
        (List.filter
           (fun k -> not (Array.mem k t.hcols || full k))
           (List.init w Fun.id))
    end
  in
  let lcats = Array.make m 0 in
  lcats.(0) <- (if none q.q_cats then 0 else 1);
  {
    rt = t;
    rrows = rows;
    tighten;
    rq = q;
    fw;
    qcols;
    lnu = block (m * w);
    lclip;
    lboxed = Bytes.make m '\001';
    lcats;
    values = block w;
  }

let values g = g.values

let down g d r =
  let t = g.rt in
  let w = t.width in
  let o = d * w and s = r * w in
  for k = 0 to w - 1 do
    meet_into g.lnu (o + w + k) g.lnu (o + k) t.nu (s + k)
  done;
  if g.tighten then begin
    let fw = g.fw in
    let o = d * fw in
    for c = 0 to fw - 1 do
      meet_into g.lclip (o + fw + c) g.lclip (o + c) t.hull (s + t.hcols.(c))
    done
  end;
  Bytes.unsafe_set g.lboxed (d + 1)
    (if t.boxed.(r) then Bytes.unsafe_get g.lboxed d else '\000');
  g.lcats.(d + 1) <- (if none t.cats.(r) then g.lcats.(d) else g.lcats.(d) + 1)

(* The cell met into level [d]: its ν row, then, under [tighten], the
   tests every range non-empty skips: a query box, satisfiable active
   PCs, a non-empty clip, consistent categorical atoms (folded only when
   two sides have any) and a non-empty ν meet clipped. *)
let leaf g d active =
  let t = g.rt in
  let w = t.width and fw = g.fw in
  blit g.lnu (d * w) g.values 0 w;
  if not g.tighten then all_nonempty g.values 0 w
  else
    let co = d * fw in
    Option.is_some g.rq.box
    && Bytes.unsafe_get g.lboxed d <> '\000'
    && all_nonempty g.lclip co fw
    && (g.lcats.(d) < 2 || cat_fold t g.rrows g.rq.q_cat_box active)
    && begin
         for c = 0 to fw - 1 do
           meet g.values t.hcols.(c) g.lclip (co + c)
         done;
         for i = 0 to Array.length g.qcols - 1 do
           let k = g.qcols.(i) in
           meet g.values k g.rq.q k
         done;
         all_nonempty g.values 0 w
       end

let single t ~tighten q values clip r =
  let w = t.width in
  blit t.nu (r * w) values 0 w;
  (not tighten)
  || begin
       blit t.hull (r * w) clip 0 w;
       meet_range clip 0 q.q 0 w;
       meet_range values 0 clip 0 w;
       all_nonempty values 0 w
     end

(* ------------------------------------------------------------------ *)
(* Decomposition frames                                                *)
(* ------------------------------------------------------------------ *)

(* Level [l] of the DFS is the solved form of its prefix: a box row over
   the frame columns, the undecided clauses, and, while [alive], a
   witness row every point of which satisfies the whole prefix.
   Categorical atoms live in residual boxes beside the rows; the query's
   ranges on other columns only decide whether the query box is empty.
   Level [l + 1] is written from level [l]; a level is only read after it
   is written, and the recursion never writes a level above its own. *)
type frames = {
  t : t;
  dc : compiled;
  fw : int;
  fbox : block;  (** level [l], frame column [c] at [l * fw + c] *)
  fwit : block;
  alive : Bytes.t;  (** ['\001'] when the level's witness is live *)
  fcat : Box.t array;
  fcat_wit : Box.t array;
  pending : Atom.t list list array;
}

let frames t ~depth =
  let dc = compiled t in
  let m = depth + 1 and fw = Array.length dc.fcols in
  {
    t;
    dc;
    fw;
    fbox = block (m * fw);
    fwit = block (m * fw);
    alive = Bytes.make m '\000';
    fcat = Array.make m Box.top;
    fcat_wit = Array.make m Box.top;
    pending = Array.make m [];
  }

let witness_alive f l = Bytes.unsafe_get f.alive l <> '\000'
let set_alive f l a = Bytes.unsafe_set f.alive l (if a then '\001' else '\000')
let drop_witness f l = set_alive f l false

let[@inline] bump (tally : Sat.tally) n = tally.ops <- tally.ops + n

let start f tally q =
  bump tally q.q_atoms;
  Option.is_some q.box
  && begin
       bump tally q.q_atoms;
       Array.iteri
         (fun c k ->
           blit q.q k f.fbox c 1;
           blit q.q k f.fwit c 1)
         f.dc.fcols;
       f.fcat.(0) <- q.q_cat_box;
       f.fcat_wit.(0) <- q.q_cat_box;
       f.pending.(0) <- [];
       set_alive f 0 true;
       true
     end

(* Conjoin row [r]'s predicate to level [l]'s box (or witness: [rows],
   [cats]) into level [l + 1]: its hull, then its categorical atoms. *)
let add_row f rows cats l r =
  let fw = f.fw in
  let d = (l + 1) * fw in
  blit rows (l * fw) rows d fw;
  meet_range rows d f.dc.fhull (r * fw) fw;
  all_nonempty rows d fw
  &&
  match f.t.cats.(r) with
  | [] ->
      cats.(l + 1) <- cats.(l);
      true
  | atoms -> (
      match Box.add_pred cats.(l) atoms with
      | None -> false
      | Some c ->
          cats.(l + 1) <- c;
          true)

let assume_row f tally l r =
  let n = f.dc.n_atoms.(r) in
  bump tally n;
  f.t.boxed.(r)
  && add_row f f.fbox f.fcat l r
  && begin
       f.pending.(l + 1) <- f.pending.(l);
       set_alive f (l + 1)
         (witness_alive f l
         && begin
              bump tally n;
              add_row f f.fwit f.fcat_wit l r
            end);
       true
     end

(* Compiled atom [j] against level [l]'s box. *)
let atom_alive f l j =
  let c = f.dc.neg_col.(j) in
  if c >= 0 then meets_at f.fbox ((l * f.fw) + c) f.dc.neg_iv j
  else Option.is_some (Box.add_atom f.fcat.(l) f.dc.neg_atom.(j))

let atom_entailed f l j =
  let c = f.dc.neg_col.(j) in
  if c >= 0 then within f.fbox ((l * f.fw) + c) f.dc.neg_iv j
  else Pred.implies_box f.fcat.(l) [ f.dc.neg_atom.(j) ]

(* Level [l]'s box into level [l + 1]. *)
let copy_box f l =
  blit f.fbox (l * f.fw) f.fbox ((l + 1) * f.fw) f.fw;
  f.fcat.(l + 1) <- f.fcat.(l)

let copy_witness f l =
  blit f.fwit (l * f.fw) f.fwit ((l + 1) * f.fw) f.fw;
  f.fcat_wit.(l + 1) <- f.fcat_wit.(l)

(* Level [l + 1] as a copy of level [l]. *)
let copy_level f l =
  copy_box f l;
  f.pending.(l + 1) <- f.pending.(l);
  let a = witness_alive f l in
  set_alive f (l + 1) a;
  if a then copy_witness f l

(* Compiled atom [j] meets level [l]'s witness. *)
let witness_meets f l j =
  let c = f.dc.neg_col.(j) in
  if c >= 0 then meets_at f.fwit ((l * f.fw) + c) f.dc.neg_iv j
  else Option.is_some (Box.add_atom f.fcat_wit.(l) f.dc.neg_atom.(j))

(* Conjoin compiled atom [j], which meets level [l]'s witness, to level
   [l + 1]'s copy of it. *)
let witness_add f l j =
  let c = f.dc.neg_col.(j) in
  if c >= 0 then meet f.fwit (((l + 1) * f.fw) + c) f.dc.neg_iv j
  else f.fcat_wit.(l + 1) <- Option.get (Box.add_atom f.fcat_wit.(l) f.dc.neg_atom.(j))

let rec first_alive f l j j1 = if j = j1 || atom_alive f l j then j else first_alive f l (j + 1) j1

let rec any_entailed f l j j1 =
  j < j1 && ((atom_alive f l j && atom_entailed f l j) || any_entailed f l (j + 1) j1)

let rec alive_atoms f l j0 j acc =
  if j < j0 then acc
  else alive_atoms f l j0 (j - 1) (if atom_alive f l j then f.dc.neg_atom.(j) :: acc else acc)

(* The first alive atom that meets level [l]'s witness, or [j1]. The
   witness lies inside the box, so an atom that meets it is alive. *)
let rec witness_atom f l j j1 =
  if j = j1 || witness_meets f l j then j else witness_atom f l (j + 1) j1

let assume_neg f tally l r =
  let j0 = f.dc.neg_off.(r) and j1 = f.dc.neg_off.(r + 1) in
  bump tally (j1 - j0);
  let first = first_alive f l j0 j1 in
  first < j1
  && begin
       if first_alive f l (first + 1) j1 = j1 then begin
         (* unit clause: deterministic, fold it into the box *)
         copy_level f l;
         let c = f.dc.neg_col.(first) in
         if c >= 0 then meet f.fbox (((l + 1) * f.fw) + c) f.dc.neg_iv first
         else f.fcat.(l + 1) <- Option.get (Box.add_atom f.fcat.(l) f.dc.neg_atom.(first));
         if witness_alive f l then begin
           bump tally 1;
           set_alive f (l + 1) (witness_meets f l first);
           if witness_alive f (l + 1) then witness_add f l first
         end
       end
       else if any_entailed f l first j1 then
         (* the box already entails one disjunct: the clause is vacuous
            and a live witness still satisfies everything *)
         copy_level f l
       else begin
         let alive = alive_atoms f l first (j1 - 1) [] in
         copy_box f l;
         f.pending.(l + 1) <- alive :: f.pending.(l);
         set_alive f (l + 1) false;
         if witness_alive f l then begin
           bump tally (List.length alive);
           let j = witness_atom f l first j1 in
           if j < j1 then begin
             copy_witness f l;
             witness_add f l j;
             set_alive f (l + 1) true
           end
         end
       end;
       true
     end

let search f tally l =
  let o = l * f.fw in
  let box = ref f.fcat.(l) in
  for c = 0 to f.fw - 1 do
    let (lo : float) = f.fbox.lo.(o + c) and (hi : float) = f.fbox.hi.(o + c) in
    if lo <> neg_infinity || hi <> infinity then
      box := Option.get (Box.add_atom !box (Atom.Num_range (f.t.cols.(f.dc.fcols.(c)), get f.fbox (o + c))))
  done;
  match Sat.solve ~tally ~box:!box f.pending.(l) with
  | None -> false
  | Some w ->
      Array.iteri (fun c k -> store f.fwit (o + c) (Box.num_interval w f.t.cols.(k))) f.dc.fcols;
      f.fcat_wit.(l) <- w;
      set_alive f l true;
      true
