module I = Pc_interval.Interval

type t =
  | Num_range of string * I.t
  | Cat_eq of string * string
  | Cat_neq of string * string
  | Cat_in of string * string list
  | Cat_not_in of string * string list

let attr = function
  | Num_range (a, _)
  | Cat_eq (a, _)
  | Cat_neq (a, _)
  | Cat_in (a, _)
  | Cat_not_in (a, _) ->
      a

(* The attribute's position is looked up here, once; what reads the
   row stays in the returned test, so an absent attribute raises
   [Not_found] and a value of the wrong kind [Invalid_argument] only
   when a row is tested, as a by-name lookup per row would. *)
let compile schema t =
  match Pc_data.Schema.index_opt schema (attr t) with
  | None -> fun _ -> raise Not_found
  | Some i -> (
      let str row = Pc_data.Value.as_str row.(i) in
      match t with
      | Num_range (_, iv) -> fun row -> I.contains iv (Pc_data.Value.as_num row.(i))
      | Cat_eq (_, s) -> fun row -> String.equal (str row) s
      | Cat_neq (_, s) -> fun row -> not (String.equal (str row) s)
      | Cat_in (_, ss) -> fun row -> List.mem (str row) ss
      | Cat_not_in (_, ss) -> fun row -> not (List.mem (str row) ss))

let eval = compile

let negate = function
  | Num_range (a, iv) -> List.map (fun c -> Num_range (a, c)) (I.complement iv)
  | Cat_eq (a, s) -> [ Cat_neq (a, s) ]
  | Cat_neq (a, s) -> [ Cat_eq (a, s) ]
  | Cat_in (a, ss) -> [ Cat_not_in (a, ss) ]
  | Cat_not_in (a, ss) -> [ Cat_in (a, ss) ]

let norm_set ss = List.sort_uniq String.compare ss

let compare a b =
  match (a, b) with
  | Num_range (x, i), Num_range (y, j) ->
      let c = String.compare x y in
      if c <> 0 then c else I.compare i j
  | Cat_eq (x, s), Cat_eq (y, t) | Cat_neq (x, s), Cat_neq (y, t) ->
      let c = String.compare x y in
      if c <> 0 then c else String.compare s t
  | Cat_in (x, s), Cat_in (y, t) | Cat_not_in (x, s), Cat_not_in (y, t) ->
      let c = String.compare x y in
      if c <> 0 then c else Stdlib.compare (norm_set s) (norm_set t)
  | Num_range _, _ -> -1
  | _, Num_range _ -> 1
  | Cat_eq _, _ -> -1
  | _, Cat_eq _ -> 1
  | Cat_neq _, _ -> -1
  | _, Cat_neq _ -> 1
  | Cat_in _, _ -> -1
  | _, Cat_in _ -> 1

let equal a b = compare a b = 0

let pp ppf = function
  | Num_range (a, iv) -> Format.fprintf ppf "%s in %a" a I.pp iv
  | Cat_eq (a, s) -> Format.fprintf ppf "%s = '%s'" a s
  | Cat_neq (a, s) -> Format.fprintf ppf "%s <> '%s'" a s
  | Cat_in (a, ss) ->
      Format.fprintf ppf "%s in {%s}" a (String.concat ", " ss)
  | Cat_not_in (a, ss) ->
      Format.fprintf ppf "%s not in {%s}" a (String.concat ", " ss)

let to_string t = Format.asprintf "%a" pp t
let between a lo hi = Num_range (a, I.closed lo hi)
let at_least a x = Num_range (a, I.at_least x)
let at_most a x = Num_range (a, I.at_most x)
let greater_than a x = Num_range (a, I.greater_than x)
let less_than a x = Num_range (a, I.less_than x)
let num_eq a x = Num_range (a, I.point x)
let cat_eq a s = Cat_eq (a, s)
