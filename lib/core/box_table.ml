module I = Pc_interval.Interval
module Box = Pc_predicate.Box
module Atom = Pc_predicate.Atom

(* Intervals stored unboxed: interval [i] is [lo.(i)], [hi.(i)], with bit
   0 of [fl.[i]] set when the lower end is open and bit 1 when the upper
   end is. An infinite end is an open infinity, which the comparisons
   below order exactly as [Interval] orders [Neg_inf]/[Pos_inf]. *)
type block = { lo : float array; hi : float array; fl : Bytes.t }

(* [n] copies of [Interval.full] *)
let block n =
  { lo = Array.make n neg_infinity; hi = Array.make n infinity; fl = Bytes.make n '\003' }

let reset b =
  let n = Array.length b.lo in
  Array.fill b.lo 0 n neg_infinity;
  Array.fill b.hi 0 n infinity;
  Bytes.fill b.fl 0 n '\003'

let blit src si dst di n =
  Array.blit src.lo si dst.lo di n;
  Array.blit src.hi si dst.hi di n;
  Bytes.blit src.fl si dst.fl di n

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

let rec all_meet a i b j n = n = 0 || (meets_at a i b j && all_meet a (i + 1) b (j + 1) (n - 1))

type t = {
  cols : string array;
  width : int;
  boxed : bool array;
  hull : block;  (** row [r], column [k] at [r * width + k] *)
  nu : block;
  cats : Atom.t list array;  (** a satisfiable predicate's categorical atoms *)
  cat_boxes : Box.t array;  (** their box ([Box.top] when none) *)
  num_attrs : string list;  (** attributes the predicates range over *)
  cat_attrs : string list;  (** attributes the predicates test categorically *)
}

let is_cat = function Atom.Num_range _ -> false | _ -> true
let none = function [] -> true | _ :: _ -> false

let make (pcs : Pc.t array) boxes =
  let n = Array.length pcs in
  let atoms =
    List.concat
      (Array.to_list
         (Array.mapi (fun i (pc : Pc.t) -> if Option.is_some boxes.(i) then pc.Pc.pred else []) pcs))
  in
  let attrs_of p = List.sort_uniq String.compare (List.map Atom.attr (List.filter p atoms)) in
  let num_attrs = attrs_of (Fun.negate is_cat) and cat_attrs = attrs_of is_cat in
  List.iter (fun a -> if List.mem a cat_attrs then Box.kind_clash a) num_attrs;
  let cols =
    Array.of_list
      (List.sort_uniq String.compare
         (num_attrs @ List.concat_map Pc.value_attrs (Array.to_list pcs)))
  in
  let width = Array.length cols in
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
    Array.mapi
      (fun r (pc : Pc.t) -> if Option.is_some boxes.(r) then List.filter is_cat pc.Pc.pred else [])
      pcs
  in
  {
    cols;
    width;
    boxed = Array.map Option.is_some boxes;
    hull;
    nu;
    cats;
    cat_boxes = Array.map (fun atoms -> Option.get (Box.of_pred atoms)) cats;
    num_attrs;
    cat_attrs;
  }

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
  { q; box; q_cats; q_cat_box = Option.get (Box.of_pred q_cats) }

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

let rec meet_rows d src w rows = function
  | [] -> ()
  | j :: rest ->
      meet_range d 0 src (rows.(j) * w) w;
      meet_rows d src w rows rest

let rec all_boxed t rows = function
  | [] -> true
  | j :: rest -> t.boxed.(rows.(j)) && all_boxed t rows rest

let rec cat_sides t rows n = function
  | [] -> n
  | j :: rest -> cat_sides t rows (if none t.cats.(rows.(j)) then n else n + 1) rest

let rec cat_fold t rows box = function
  | [] -> true
  | j :: rest -> (
      match t.cats.(rows.(j)) with
      | [] -> cat_fold t rows box rest
      | atoms -> (
          match Box.add_pred box atoms with
          | None -> false
          | Some box -> cat_fold t rows box rest))

let cell t ~rows ~tighten q values clip active =
  let w = t.width in
  reset values;
  meet_rows values t.nu w rows active;
  if not tighten then all_nonempty values 0 w
  else
    Option.is_some q.box
    && all_boxed t rows active
    && begin
         blit q.q 0 clip 0 w;
         meet_rows clip t.hull w rows active;
         all_nonempty clip 0 w
       end
    && (cat_sides t rows (if none q.q_cats then 0 else 1) active < 2
       || cat_fold t rows q.q_cat_box active)
    && begin
         meet_range values 0 clip 0 w;
         all_nonempty values 0 w
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
