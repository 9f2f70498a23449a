type tuple = Value.t array

type t = {
  schema : Schema.t;
  rows : tuple array;
  numbers : float array option array;
      (* per attribute, its unboxed numeric column once some reader
         asked for it; every relation value owns a fresh one *)
}

let make schema rows =
  { schema; rows; numbers = Array.make (Schema.arity schema) None }

let validate schema row =
  if Array.length row <> Schema.arity schema then
    invalid_arg "Relation: tuple arity mismatch";
  List.iteri
    (fun i (a : Schema.attr) ->
      match (a.kind, row.(i)) with
      | Schema.Numeric, Value.Num _ | Schema.Categorical, Value.Str _ -> ()
      | Schema.Numeric, Value.Str s ->
          invalid_arg
            (Printf.sprintf "Relation: %S in numeric attribute %s" s a.name)
      | Schema.Categorical, Value.Num x ->
          invalid_arg
            (Printf.sprintf "Relation: %g in categorical attribute %s" x a.name))
    (Schema.attrs schema)

let of_array schema rows =
  Array.iter (validate schema) rows;
  make schema (Array.map Array.copy rows)

let create schema rows = of_array schema (Array.of_list rows)
let adopt = make
let schema t = t.schema
let cardinality t = Array.length t.rows
let is_empty t = cardinality t = 0
let tuples t = Array.map Array.copy t.rows
let get t i = Array.copy t.rows.(i)
let row t i = t.rows.(i)
let value t i name = t.rows.(i).(Schema.index t.schema name)
let number t i name = Value.as_num (value t i name)
let iter f t = Array.iter f t.rows
let fold f init t = Array.fold_left f init t.rows

(* [p] once per row, in row order, into a byte mask; each side is then
   copied out at its exact length. *)
let mask p t =
  let m = Bytes.make (cardinality t) '\000' and yes = ref 0 in
  Array.iteri
    (fun i row ->
      if p row then begin
        Bytes.unsafe_set m i '\001';
        incr yes
      end)
    t.rows;
  (m, !yes)

let pick t m side len =
  let out = Array.make len [||] and k = ref 0 in
  Array.iteri
    (fun i row ->
      if Bytes.unsafe_get m i = side then begin
        out.(!k) <- row;
        incr k
      end)
    t.rows;
  make t.schema out

let filter p t =
  let m, yes = mask p t in
  pick t m '\001' yes

let partition p t =
  let m, yes = mask p t in
  (pick t m '\001' yes, pick t m '\000' (cardinality t - yes))

let union a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Relation.union: schema mismatch";
  make a.schema (Array.append a.rows b.rows)

let fill t i = Array.map (fun row -> Value.as_num row.(i)) t.rows

(* Fill-once and idempotent: two threads that miss together both fill
   the same values, and either array may stay. *)
let numbers t name =
  let i = Schema.index t.schema name in
  match t.numbers.(i) with
  | Some xs -> xs
  | None ->
      let xs = fill t i in
      t.numbers.(i) <- Some xs;
      xs

let column t name =
  let i = Schema.index t.schema name in
  match t.numbers.(i) with Some xs -> Array.copy xs | None -> fill t i

let column_values t name =
  let i = Schema.index t.schema name in
  Array.map (fun row -> row.(i)) t.rows

let distinct_strings t name =
  let i = Schema.index t.schema name in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun row ->
      let s = Value.as_str row.(i) in
      if not (Hashtbl.mem seen s) then Hashtbl.add seen s ())
    t.rows;
  Hashtbl.fold (fun s () acc -> s :: acc) seen [] |> List.sort String.compare

let min_max t name =
  if is_empty t then None
  else begin
    let xs = numbers t name in
    Some (Pc_util.Stat.minimum xs, Pc_util.Stat.maximum xs)
  end

let sort_by cmp t =
  let rows = Array.map Array.copy t.rows in
  Array.sort cmp rows;
  make t.schema rows

let group_by t name =
  let i = Schema.index t.schema name in
  let order = ref [] in
  let groups : (Value.t, tuple list ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun row ->
      let key = row.(i) in
      match Hashtbl.find_opt groups key with
      | Some cell -> cell := row :: !cell
      | None ->
          Hashtbl.add groups key (ref [ row ]);
          order := key :: !order)
    t.rows;
  List.rev_map
    (fun key ->
      let rows = List.rev !(Hashtbl.find groups key) in
      (key, make t.schema (Array.of_list rows)))
    !order

let take n t =
  let n = min n (cardinality t) in
  make t.schema (Array.sub t.rows 0 n)

let drop n t =
  let n = min n (cardinality t) in
  make t.schema (Array.sub t.rows n (cardinality t - n))

let pp ppf t =
  Format.fprintf ppf "@[<v>%a (%d rows)@," Schema.pp t.schema (cardinality t);
  let shown = min 10 (cardinality t) in
  for i = 0 to shown - 1 do
    let row = t.rows.(i) in
    Format.fprintf ppf "  %a@,"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
         Value.pp)
      (Array.to_list row)
  done;
  if cardinality t > shown then Format.fprintf ppf "  ...@,";
  Format.fprintf ppf "@]"
