type clause = Atom.t list

type t = clause list

let of_pred p = List.map (fun atom -> [ atom ]) p
let of_neg_pred p = [ List.concat_map Atom.negate p ]
let conj = ( @ )

let eval schema t =
  let clauses = List.map (List.map (Atom.compile schema)) t in
  fun row -> List.for_all (List.exists (fun test -> test row)) clauses
