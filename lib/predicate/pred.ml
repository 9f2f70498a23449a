module I = Pc_interval.Interval

type t = Atom.t list

let tt = []
let conj atoms = atoms
let eval schema t row = List.for_all (fun a -> Atom.eval schema a row) t
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
