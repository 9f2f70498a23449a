module I = Pc_interval.Interval

type t = Atom.t list

let tt = []
let conj atoms = atoms
let compile schema t =
  let rec all row = function [] -> true | test :: rest -> test row && all row rest in
  match List.map (Atom.compile schema) t with
  | [] -> fun _ -> true
  | [ test ] -> test
  | tests -> fun row -> all row tests

let eval = compile

(* A range atom over an unboxed column, as two comparisons that admit
   exactly what [I.contains] admits: an unbounded end ([any_lo],
   [any_hi] set to 1) admits everything, NaN included; an open end
   compares against the next float inward; an end that admits nothing
   compares against NaN. *)
type range = { xs : float array; any_lo : int; lo : float; any_hi : int; hi : float }

let range xs (iv : I.t) =
  let any_lo, lo =
    match iv.I.lo with
    | I.Neg_inf -> (1, 0.)
    | I.Closed l -> (0, l)
    | I.Open l -> (0, if l = Float.infinity then Float.nan else Float.succ l)
    | I.Pos_inf -> (0, Float.nan)
  and any_hi, hi =
    match iv.I.hi with
    | I.Pos_inf -> (1, 0.)
    | I.Closed h -> (0, h)
    | I.Open h -> (0, if h = Float.neg_infinity then Float.nan else Float.pred h)
    | I.Neg_inf -> (0, Float.nan)
  in
  { xs; any_lo; lo; any_hi; hi }

(* [keep r rows count] keeps, in order, the first [count] indices of
   [rows] whose row lies in [r], and returns how many: every index is
   written and the count advanced by its hit, with no branch on the
   data. *)
let keep { xs; any_lo; lo; any_hi; hi } rows count =
  let kept = ref 0 in
  for j = 0 to count - 1 do
    let i = Array.unsafe_get rows j in
    let x = Array.unsafe_get xs i in
    Array.unsafe_set rows !kept i;
    kept :=
      !kept
      + ((Bool.to_int (x >= lo) lor any_lo) land (Bool.to_int (x <= hi) lor any_hi))
  done;
  !kept

(* Where every atom names an attribute of its own kind, no tuple of a
   relation (whose tuples were checked against its schema) can make an
   atom raise, so the range atoms may read the cached columns, one
   range after another over the rows the earlier ones kept; the other
   atoms (all of them otherwise) go through [compile] on the rows that
   are left, in row order, exceptions and all. *)
let scanner rel t =
  let module S = Pc_data.Schema in
  let module R = Pc_data.Relation in
  let schema = R.schema rel in
  let kind = function Atom.Num_range _ -> S.Numeric | _ -> S.Categorical in
  let typed atom =
    let a = Atom.attr atom in
    S.mem schema a && S.kind schema a = kind atom
  in
  let ranges, rest =
    if List.for_all typed t then
      List.partition_map
        (function
          | Atom.Num_range (a, iv) -> Either.Left (range (R.numbers rel a) iv)
          | atom -> Either.Right atom)
        t
    else ([], t)
  in
  let rest = match rest with [] -> None | rest -> Some (compile schema rest) in
  let n = R.cardinality rel in
  fun from rows ->
    if from < 0 then invalid_arg "Pred.scanner: negative start";
    let count = max 0 (min n (from + Array.length rows) - from) in
    for j = 0 to count - 1 do
      Array.unsafe_set rows j (from + j)
    done;
    let count = List.fold_left (fun count r -> keep r rows count) count ranges in
    match rest with
    | None -> count
    | Some test ->
        let kept = ref 0 in
        for j = 0 to count - 1 do
          let i = Array.unsafe_get rows j in
          if test (R.row rel i) then begin
            Array.unsafe_set rows !kept i;
            incr kept
          end
        done;
        !kept

let attrs t = List.map Atom.attr t |> List.sort_uniq String.compare
let to_box t = Box.of_pred t
let satisfiable t = Option.is_some (to_box t)

let implies_box box = function
  | [] -> true
  | atoms ->
      List.for_all
        (fun atom ->
          match atom with
          | Atom.Num_range (a, iv) -> I.subset (Box.num_interval box a) iv
          | Atom.Cat_eq (a, s) -> (
              match Box.cat_constraint box a with
              | Some (Box.In [ v ]) -> String.equal v s
              | Some (Box.In vs) -> List.for_all (String.equal s) vs
              | Some (Box.Not_in _) | None -> false)
          | Atom.Cat_neq (a, s) -> (
              match Box.cat_constraint box a with
              | Some (Box.In vs) -> not (List.exists (String.equal s) vs)
              | Some (Box.Not_in vs) -> List.exists (String.equal s) vs
              | None -> false)
          | Atom.Cat_in (a, ss) -> (
              match Box.cat_constraint box a with
              | Some (Box.In vs) ->
                  List.for_all (fun v -> List.exists (String.equal v) ss) vs
              | Some (Box.Not_in _) | None -> false)
          | Atom.Cat_not_in (a, ss) -> (
              match Box.cat_constraint box a with
              | Some (Box.In vs) ->
                  List.for_all
                    (fun v -> not (List.exists (String.equal v) ss))
                    vs
              | Some (Box.Not_in excl) ->
                  List.for_all
                    (fun s -> List.exists (String.equal s) excl)
                    ss
              | None -> false))
        atoms

let equal a b =
  let norm = List.sort_uniq Atom.compare in
  List.equal Atom.equal (norm a) (norm b)

let canonical t =
  let norm_atom = function
    | Atom.Cat_in (a, ss) -> Atom.Cat_in (a, List.sort_uniq String.compare ss)
    | Atom.Cat_not_in (a, ss) ->
        Atom.Cat_not_in (a, List.sort_uniq String.compare ss)
    | atom -> atom
  in
  List.sort_uniq Atom.compare (List.map norm_atom t)

(* Collision-free rendering for cache keys: [I.key] prints floats
   exactly and strings are quoted as [%S] quotes them, so distinct
   canonical predicates never collide. Built in one buffer pass. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

let add_canonical_key buf t =
  let strings ss =
    Buffer.add_char buf '{';
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char buf ';';
        add_quoted buf s)
      ss;
    Buffer.add_char buf '}'
  in
  let atom_key atom =
    let head tag a =
      Buffer.add_char buf tag;
      add_quoted buf a
    in
    match atom with
    | Atom.Num_range (a, iv) ->
        head 'n' a;
        I.add_key buf iv
    | Atom.Cat_eq (a, s) ->
        head 'e' a;
        add_quoted buf s
    | Atom.Cat_neq (a, s) ->
        head 'd' a;
        add_quoted buf s
    | Atom.Cat_in (a, ss) ->
        head 'i' a;
        strings ss
    | Atom.Cat_not_in (a, ss) ->
        head 'x' a;
        strings ss
  in
  match canonical t with
  | [] -> Buffer.add_string buf "TRUE"
  | atoms ->
      List.iteri
        (fun i atom ->
          if i > 0 then Buffer.add_char buf '&';
          atom_key atom)
        atoms

let canonical_key t =
  let buf = Buffer.create 64 in
  add_canonical_key buf t;
  Buffer.contents buf

let pp ppf = function
  | [] -> Format.fprintf ppf "TRUE"
  | atoms ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf " AND ")
        Atom.pp ppf atoms

let to_string t = Format.asprintf "%a" pp t
