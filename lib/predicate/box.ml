module I = Pc_interval.Interval
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type cat = In of string list | Not_in of string list

(* Internal categorical representation uses sets for efficiency. *)
type cat_internal = CIn of SSet.t | CNot_in of SSet.t

type t = {
  num : I.t SMap.t;
  cat : cat_internal SMap.t;
  universe : SSet.t SMap.t;  (** optional finite domains for cat attrs *)
}

let top = { num = SMap.empty; cat = SMap.empty; universe = SMap.empty }

let with_universe u =
  {
    top with
    universe =
      List.fold_left
        (fun acc (a, vs) -> SMap.add a (SSet.of_list vs) acc)
        SMap.empty u;
  }

let kind_clash attr =
  invalid_arg (Printf.sprintf "Box: attribute %s used as both kinds" attr)

let check_kinds t attr ~numeric =
  if numeric then begin
    if SMap.mem attr t.cat then kind_clash attr
  end
  else if SMap.mem attr t.num then kind_clash attr

let cat_nonempty t attr = function
  | CIn s -> not (SSet.is_empty s)
  | CNot_in excl -> (
      match SMap.find_opt attr t.universe with
      | None -> true (* open universe: some string always remains *)
      | Some u -> not (SSet.subset u excl))

let restrict_cat t attr incoming =
  let current = SMap.find_opt attr t.cat in
  let combined =
    match (current, incoming) with
    | None, c -> c
    | Some (CIn a), CIn b -> CIn (SSet.inter a b)
    | Some (CIn a), CNot_in b -> CIn (SSet.diff a b)
    | Some (CNot_in a), CIn b -> CIn (SSet.diff b a)
    | Some (CNot_in a), CNot_in b -> CNot_in (SSet.union a b)
  in
  (* Clip an allowed set to the universe when one is declared. *)
  let combined =
    match (combined, SMap.find_opt attr t.universe) with
    | CIn s, Some u -> CIn (SSet.inter s u)
    | c, _ -> c
  in
  if cat_nonempty t attr combined then
    Some { t with cat = SMap.add attr combined t.cat }
  else None

let add_atom t atom =
  match atom with
  | Atom.Num_range (attr, iv) -> begin
      check_kinds t attr ~numeric:true;
      let current =
        Option.value (SMap.find_opt attr t.num) ~default:I.full
      in
      match I.intersect current iv with
      | Some iv' -> Some { t with num = SMap.add attr iv' t.num }
      | None -> None
    end
  | Atom.Cat_eq (attr, s) ->
      check_kinds t attr ~numeric:false;
      restrict_cat t attr (CIn (SSet.singleton s))
  | Atom.Cat_neq (attr, s) ->
      check_kinds t attr ~numeric:false;
      restrict_cat t attr (CNot_in (SSet.singleton s))
  | Atom.Cat_in (attr, ss) ->
      check_kinds t attr ~numeric:false;
      restrict_cat t attr (CIn (SSet.of_list ss))
  | Atom.Cat_not_in (attr, ss) ->
      check_kinds t attr ~numeric:false;
      restrict_cat t attr (CNot_in (SSet.of_list ss))

let add_pred t atoms =
  List.fold_left
    (fun acc atom -> Option.bind acc (fun box -> add_atom box atom))
    (Some t) atoms

let of_pred atoms = add_pred top atoms

let num_interval t attr =
  Option.value (SMap.find_opt attr t.num) ~default:I.full

let cat_constraint t attr =
  Option.map
    (function
      | CIn s -> In (SSet.elements s)
      | CNot_in s -> Not_in (SSet.elements s))
    (SMap.find_opt attr t.cat)

let fresh_outside excl =
  (* A string distinct from every excluded one: longer than all of them. *)
  let len =
    SSet.fold (fun s acc -> max acc (String.length s)) excl 0
  in
  String.make (len + 1) '_'

let witness t =
  let nums =
    SMap.bindings t.num
    |> List.map (fun (a, iv) -> (a, Pc_data.Value.Num (I.midpoint iv)))
  and cats =
    SMap.bindings t.cat
    |> List.map (fun (a, c) ->
           let s =
             match c with
             | CIn s -> SSet.min_elt s
             | CNot_in excl -> (
                 match SMap.find_opt a t.universe with
                 | Some u -> SSet.min_elt (SSet.diff u excl)
                 | None -> fresh_outside excl)
           in
           (a, Pc_data.Value.Str s))
  in
  nums @ cats
