module Pred = Pc_predicate.Pred
module Box = Pc_predicate.Box
module I = Pc_interval.Interval

(* Per-PC data every bound reads: each predicate's box, and a dense ν
   table with one row per PC over the set's sorted value attributes
   ([Interval.full] where a PC leaves an attribute free). *)
type derived = {
  boxes : Box.t option array;
  attrs : string array;
  rows : I.t array array;
}

(* [disjoint] and [derived] are computed on first use. Pool domains may
   race on them: both compute the same value, where a shared [Lazy.t]
   would raise [CamlinternalLazy.Undefined] in the loser. *)
type t = {
  arr : Pc.t array;
  disjoint : bool option Atomic.t;
  derived : derived option Atomic.t;
}

let cached slot compute =
  match Atomic.get slot with
  | Some v -> v
  | None ->
      let v = compute () in
      Atomic.set slot (Some v);
      v

let derived t =
  cached t.derived (fun () ->
      let attrs =
        Array.to_list t.arr
        |> List.concat_map Pc.value_attrs
        |> List.sort_uniq String.compare |> Array.of_list
      in
      {
        boxes = Array.map (fun (pc : Pc.t) -> Box.of_pred pc.Pc.pred) t.arr;
        attrs;
        rows = Array.map (fun pc -> Array.map (Pc.value_interval pc) attrs) t.arr;
      })

let box t i = (derived t).boxes.(i)
let value_attrs t = (derived t).attrs
let value_row t i = (derived t).rows.(i)

let compute_disjoint t =
  let n = Array.length t.arr in
  let boxes = (derived t).boxes in
  let overlap i j =
    match boxes.(i) with
    | None -> false
    | Some bi -> (
        match Box.add_pred bi t.arr.(j).Pc.pred with
        | Some _ -> true
        | None -> false)
  in
  let rec scan i j =
    if i >= n then true
    else if j >= n then scan (i + 1) (i + 2)
    else if overlap i j then false
    else scan i (j + 1)
  in
  scan 0 1

let fresh ?derived arr = { arr; disjoint = Atomic.make None; derived = Atomic.make derived }

let of_array arr = fresh (Array.copy arr)
let make pcs = fresh (Array.of_list pcs)
let pcs t = Array.to_list t.arr
let size t = Array.length t.arr
let get t i = t.arr.(i)

let filter f t =
  let keep = List.filter f (List.init (size t) Fun.id) in
  let pick a = Array.of_list (List.map (Array.get a) keep) in
  let d = derived t in
  fresh ~derived:{ d with boxes = pick d.boxes; rows = pick d.rows } (pick t.arr)

let violations rel t =
  Array.to_list t.arr |> List.concat_map (Pc.violations rel)

let holds rel t = Array.for_all (fun pc -> Pc.holds rel pc) t.arr

let closed_over rel t =
  let schema = Pc_data.Relation.schema rel in
  let covered row =
    Array.exists (fun (pc : Pc.t) -> Pred.eval schema pc.Pc.pred row) t.arr
  in
  Pc_data.Relation.fold (fun acc row -> acc && covered row) true rel

let is_disjoint t = cached t.disjoint (fun () -> compute_disjoint t)

let attrs t =
  Array.to_list t.arr
  |> List.concat_map (fun (pc : Pc.t) ->
         Pred.attrs pc.Pc.pred @ Pc.value_attrs pc)
  |> List.sort_uniq String.compare

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter (fun pc -> Format.fprintf ppf "%a@," Pc.pp pc) t.arr;
  Format.fprintf ppf "@]"
