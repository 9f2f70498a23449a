type clause = Atom.t list

type t = clause list

let tt = []
let of_pred p = List.map (fun atom -> [ atom ]) p
let of_neg_pred p = [ List.concat_map Atom.negate p ]
let conj = ( @ )

let eval schema t =
  let clauses = List.map (List.map (Atom.compile schema)) t in
  fun row -> List.for_all (List.exists (fun test -> test row)) clauses

let pp ppf t =
  let pp_clause ppf clause =
    match clause with
    | [] -> Format.fprintf ppf "FALSE"
    | atoms ->
        Format.fprintf ppf "(%a)"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " OR ")
             Atom.pp)
          atoms
  in
  match t with
  | [] -> Format.fprintf ppf "TRUE"
  | clauses ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf " AND ")
        pp_clause ppf clauses
