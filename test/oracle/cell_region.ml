module I = Pc_interval.Interval
module Box = Pc_predicate.Box
module Cnf = Pc_predicate.Cnf
module Pc = Pc_core.Pc
module Pc_set = Pc_core.Pc_set

let cnf set qpred active =
  let rec go i active expr =
    if i = Pc_set.size set then expr
    else
      let pred = (Pc_set.get set i).Pc.pred in
      match active with
      | j :: rest when j = i -> go (i + 1) rest (Cnf.conj (Cnf.of_pred pred) expr)
      | _ -> go (i + 1) active (Cnf.conj (Cnf.of_neg_pred pred) expr)
  in
  go 0 active (Cnf.of_pred qpred)

let cell_box set qpred active =
  List.fold_left
    (fun acc j -> Option.bind acc (fun b -> Box.add_pred b (Pc_set.get set j).Pc.pred))
    (Box.add_pred Box.top qpred)
    active

let cell_value_interval ~tighten set qpred active attr =
  let from_values =
    List.fold_left
      (fun acc j ->
        Option.bind acc (fun iv -> I.intersect iv (Pc.value_interval (Pc_set.get set j) attr)))
      (Some I.full) active
  in
  match from_values with
  | None -> None
  | Some iv -> (
      if not tighten then Some iv
      else
        match cell_box set qpred active with
        | None -> None (* cell region itself is empty (early-stop artifact) *)
        | Some b -> I.intersect iv (Box.num_interval b attr))

let cell_inhabitable ~tighten set qpred active =
  let attrs =
    List.concat_map (fun j -> Pc.value_attrs (Pc_set.get set j)) active
    |> List.sort_uniq String.compare
  in
  List.for_all
    (fun a -> Option.is_some (cell_value_interval ~tighten set qpred active a))
    attrs
  &&
  (* guard against admitted-but-unsat cells from Early_stop *)
  match attrs with
  | _ :: _ -> true
  | [] -> (not tighten) || Option.is_some (cell_box set qpred active)

(* ------------------------------------------------------------------ *)
(* The per-cell region build [Bounds.prepare] ran before the
   decomposition carried its regions: the old [Box_table.cell] and
   [Bounds.region], over a flat table of the set's own.               *)
(* ------------------------------------------------------------------ *)

module Atom = Pc_predicate.Atom

type block = { lo : float array; hi : float array; fl : Bytes.t }

let block n =
  { lo = Array.make n neg_infinity; hi = Array.make n infinity; fl = Bytes.make n '\003' }

let reset b =
  let n = Array.length b.lo in
  Array.fill b.lo 0 n neg_infinity;
  Array.fill b.hi 0 n infinity;
  Bytes.fill b.fl 0 n '\003'

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

let is_cat = function Atom.Num_range _ -> false | _ -> true
let none = function [] -> true | _ :: _ -> false

type table = {
  cols : string array;
  width : int;
  boxed : bool array;
  hull : block;  (** PC [i], column [k] at [i * width + k] *)
  nu : block;
  cats : Atom.t list array;
}

let table set =
  let cols = Pc_core.Box_table.cols (Pc_set.table set) in
  let n = Pc_set.size set and width = Array.length cols in
  let hull = block (n * width) and nu = block (n * width) in
  let boxed = Array.make n false and cats = Array.make n [] in
  for i = 0 to n - 1 do
    let pc = Pc_set.get set i in
    let box = Box.of_pred pc.Pc.pred in
    Array.iteri
      (fun k a ->
        store nu ((i * width) + k) (Pc.value_interval pc a);
        Option.iter (fun b -> store hull ((i * width) + k) (Box.num_interval b a)) box)
      cols;
    boxed.(i) <- Option.is_some box;
    if boxed.(i) then cats.(i) <- List.filter is_cat pc.Pc.pred
  done;
  { cols; width; boxed; hull; nu; cats }

type query = { q : block; box : Box.t option; q_cats : Atom.t list; q_cat_box : Box.t }

let query t pred =
  let box = Box.of_pred pred in
  let q = block t.width in
  let q_cats = if Option.is_some box then List.filter is_cat pred else [] in
  Option.iter (fun b -> Array.iteri (fun k a -> store q k (Box.num_interval b a)) t.cols) box;
  { q; box; q_cats; q_cat_box = Option.get (Box.of_pred q_cats) }

type acc = block

let acc t = block t.width

let rec meet_rows d src w = function
  | [] -> ()
  | j :: rest ->
      meet_range d 0 src (j * w) w;
      meet_rows d src w rest

let rec cat_fold t box = function
  | [] -> true
  | j :: rest -> (
      match t.cats.(j) with
      | [] -> cat_fold t box rest
      | atoms -> (
          match Box.add_pred box atoms with None -> false | Some box -> cat_fold t box rest))

let cell t ~tighten q values clip active =
  let w = t.width in
  reset values;
  meet_rows values t.nu w active;
  if not tighten then all_nonempty values 0 w
  else
    Option.is_some q.box
    && List.for_all (fun j -> t.boxed.(j)) active
    && begin
         blit q.q 0 clip 0 w;
         meet_rows clip t.hull w active;
         all_nonempty clip 0 w
       end
    && (List.length (List.filter (fun j -> not (none t.cats.(j))) active)
        + (if none q.q_cats then 0 else 1)
        < 2
       || cat_fold t q.q_cat_box active)
    && begin
         meet_range values 0 clip 0 w;
         all_nonempty values 0 w
       end

type region = { cols : string array; values : I.t array; outside : Box.t option }

let region ~tighten set qpred active =
  let t = table set in
  let q = query t qpred in
  let values = acc t and clip = acc t in
  if cell t ~tighten q values clip active then
    Some
      {
        cols = t.cols;
        values = Array.init t.width (get values);
        outside = (if tighten then Some (Option.value q.box ~default:Box.top) else None);
      }
  else None

let region_interval (r : region) attr =
  let rec find k =
    if k = Array.length r.cols then
      match r.outside with None -> I.full | Some b -> Box.num_interval b attr
    else if String.equal r.cols.(k) attr then r.values.(k)
    else find (k + 1)
  in
  find 0
