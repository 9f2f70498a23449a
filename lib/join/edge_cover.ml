module S = Pc_lp.Simplex

type cover = (string * float) list

let solve ?budget ?(fixed = []) ~weights hg =
  let rels = Hypergraph.rels hg in
  let n = List.length rels in
  let index =
    List.mapi (fun i (r : Hypergraph.rel) -> (r.Hypergraph.name, i)) rels
  in
  let weight_of name =
    match List.assoc_opt name weights with
    | Some w -> Float.max 1. w
    | None -> invalid_arg (Printf.sprintf "Edge_cover.solve: missing weight for %s" name)
  in
  let objective =
    List.map
      (fun (r : Hypergraph.rel) ->
        (List.assoc r.Hypergraph.name index, log (weight_of r.Hypergraph.name)))
      rels
  in
  let cover_cons =
    List.map
      (fun attr ->
        let coeffs =
          List.map (fun name -> (List.assoc name index, 1.)) (Hypergraph.covering hg attr)
        in
        S.c_ge coeffs 1.)
      (Hypergraph.attrs hg)
  in
  (* A pinned relation is a [v, v] box, not an equality row. The free
     weights live in [0, 1]: objective coefficients are log(max 1 w) >= 0,
     and clamping any w_e > 1 down to 1 keeps every covering row at >= 1
     (each term caps at 1), so the optimum is preserved while the LP loses
     its equality rows — and with them, phase 1 work. *)
  let fixed_bounds =
    List.map
      (fun (name, v) ->
        match List.assoc_opt name index with
        | Some i -> (i, v, v)
        | None -> invalid_arg (Printf.sprintf "Edge_cover.solve: unknown relation %s" name))
      fixed
  in
  let free_bounds =
    List.filter_map
      (fun (r : Hypergraph.rel) ->
        let i = List.assoc r.Hypergraph.name index in
        if List.exists (fun (j, _, _) -> j = i) fixed_bounds then None
        else Some (i, 0., 1.))
      rels
  in
  let problem =
    {
      S.n_vars = n;
      maximize = false;
      objective;
      constraints = cover_cons;
      var_bounds = fixed_bounds @ free_bounds;
    }
  in
  match S.solve ?budget problem with
  | S.Optimal sol ->
      Some
        (List.map
           (fun (r : Hypergraph.rel) ->
             (r.Hypergraph.name, sol.S.values.(List.assoc r.Hypergraph.name index)))
           rels)
  | S.Infeasible | S.Unbounded -> None
  | S.Stopped _ ->
      (* starved before optimality: no cover — callers fall back to the
         (sound, looser) plain product bound *)
      None

let product_bound ~weights cover =
  List.fold_left
    (fun acc (name, c) ->
      if c <= 1e-12 then acc
      else begin
        let w =
          match List.assoc_opt name weights with
          | Some w -> Float.max 1. w
          | None -> invalid_arg "Edge_cover.product_bound: missing weight"
        in
        acc *. (w ** c)
      end)
    1. cover
