module Pred = Pc_predicate.Pred
module Box = Pc_predicate.Box

(* [disjoint] is computed on first use. Pool domains may race on it:
   both compute the same value, where a shared [Lazy.t] would raise
   [CamlinternalLazy.Undefined] in the loser. *)
type t = { arr : Pc.t array; disjoint : bool option Atomic.t }

let compute_disjoint arr =
  let n = Array.length arr in
  let boxes = Array.map (fun (pc : Pc.t) -> Box.of_pred pc.Pc.pred) arr in
  let overlap i j =
    match boxes.(i) with
    | None -> false
    | Some bi -> (
        match Box.add_pred bi arr.(j).Pc.pred with
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

let of_array arr =
  let arr = Array.copy arr in
  { arr; disjoint = Atomic.make None }

let make pcs = of_array (Array.of_list pcs)
let pcs t = Array.to_list t.arr
let size t = Array.length t.arr
let get t i = t.arr.(i)

let violations rel t =
  Array.to_list t.arr |> List.concat_map (Pc.violations rel)

let holds rel t = Array.for_all (fun pc -> Pc.holds rel pc) t.arr

let closed_over rel t =
  let schema = Pc_data.Relation.schema rel in
  let covered row =
    Array.exists (fun (pc : Pc.t) -> Pred.eval schema pc.Pc.pred row) t.arr
  in
  Pc_data.Relation.fold (fun acc row -> acc && covered row) true rel

let is_disjoint t =
  match Atomic.get t.disjoint with
  | Some d -> d
  | None ->
      let d = compute_disjoint t.arr in
      Atomic.set t.disjoint (Some d);
      d

let attrs t =
  Array.to_list t.arr
  |> List.concat_map (fun (pc : Pc.t) ->
         Pred.attrs pc.Pc.pred @ Pc.value_attrs pc)
  |> List.sort_uniq String.compare

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter (fun pc -> Format.fprintf ppf "%a@," Pc.pp pc) t.arr;
  Format.fprintf ppf "@]"
