module S = Pc_lp.Simplex

let rows ~cells ~kl ~ku ~consumption =
  let n_cells = Array.length cells in
  (* each PC's covering cells, in ascending cell order *)
  let covering = Array.make (Array.length kl) [] in
  for i = n_cells - 1 downto 0 do
    List.iter (fun j -> covering.(j) <- i :: covering.(j)) cells.(i)
  done;
  let n_vars = ref n_cells in
  let cons = ref [] in
  Array.iteri
    (fun j -> function
      | [] | [ _ ] -> ()
      | cells ->
          let w = if consumption then (incr n_vars; !n_vars - 1) else -1 in
          (* ascending: the cells, then the consumption column *)
          let coeffs =
            List.fold_right (fun i acc -> (i, 1.) :: acc) cells (if w >= 0 then [ (w, 1.) ] else [])
          in
          cons := S.c_le coeffs (float_of_int ku.(j)) :: !cons;
          if kl.(j) > 0 then cons := S.c_ge coeffs (float_of_int kl.(j)) :: !cons)
    covering;
  (!n_vars, !cons)

let any_row ~n_cells cons = S.c_ge (List.init n_cells (fun i -> (i, 1.))) 1. :: cons
