module Pred = Pc_predicate.Pred

(* [disjoint] and [table] are computed on first use. Server threads may
   race on them: both compute the same value, where a shared [Lazy.t]
   would raise [CamlinternalLazy.Undefined] in the loser. [rows] maps
   each PC to its row of [table]: a {!filter}ed set shares its
   parent's. A {!map_freqs} set shares the parent's slots themselves,
   so whichever of the two fills one fills it for both. *)
type t = {
  arr : Pc.t array;
  rows : int array;
  disjoint : bool option Atomic.t;
  table : Box_table.t option Atomic.t;
}

let cached slot compute =
  match Atomic.get slot with
  | Some v -> v
  | None ->
      let v = compute () in
      Atomic.set slot (Some v);
      v

let table t = cached t.table (fun () -> Box_table.make t.arr)
let rows t = t.rows

let compute_disjoint t =
  let n = Array.length t.arr in
  let tbl = table t in
  let boxed i = Box_table.boxed tbl t.rows.(i) in
  let rec scan i j =
    if i >= n then true
    else if j >= n then scan (i + 1) (i + 2)
    else if boxed i && boxed j && Box_table.meets tbl t.rows.(i) t.rows.(j) then false
    else scan i (j + 1)
  in
  scan 0 1

let fresh ?table arr rows =
  { arr; rows; disjoint = Atomic.make None; table = Atomic.make table }

let own arr = fresh arr (Array.init (Array.length arr) Fun.id)
let of_array arr = own (Array.copy arr)
let make pcs = own (Array.of_list pcs)
let pcs t = Array.to_list t.arr
let size t = Array.length t.arr
let get t i = t.arr.(i)

let filter f t =
  let keep = Array.of_list (List.filter f (List.init (size t) Fun.id)) in
  fresh ~table:(table t) (Array.map (Array.get t.arr) keep) (Array.map (Array.get t.rows) keep)

let map_freqs f t =
  let arr =
    Array.mapi
      (fun i (pc : Pc.t) ->
        let ((kl, ku) as freq) = f i pc in
        if kl = pc.Pc.freq_lo && ku = pc.Pc.freq_hi then pc
        else Pc.make ~name:pc.Pc.name ~pred:pc.Pc.pred ~values:pc.Pc.values ~freq ())
      t.arr
  in
  { t with arr }

let violations rel t =
  Array.to_list t.arr |> List.concat_map (Pc.violations rel)

let holds rel t = Array.for_all (fun pc -> Pc.holds rel pc) t.arr

let closed_over rel t =
  let schema = Pc_data.Relation.schema rel in
  let tests = Array.map (fun (pc : Pc.t) -> Pred.compile schema pc.Pc.pred) t.arr in
  let covered row = Array.exists (fun test -> test row) tests in
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
