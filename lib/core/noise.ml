module I = Pc_interval.Interval

let corrupt_endpoint rng sigma = function
  | I.Neg_inf -> I.Neg_inf
  | I.Pos_inf -> I.Pos_inf
  | I.Closed x -> I.Closed (x +. Pc_util.Rng.gaussian rng ~mu:0. ~sigma)
  | I.Open x -> I.Open (x +. Pc_util.Rng.gaussian rng ~mu:0. ~sigma)

let endpoint_value = function
  | I.Closed x | I.Open x -> x
  | I.Neg_inf -> neg_infinity
  | I.Pos_inf -> infinity

let corrupt_interval rng sigma iv =
  let lo = corrupt_endpoint rng sigma iv.I.lo in
  let hi = corrupt_endpoint rng sigma iv.I.hi in
  match I.make lo hi with
  | Some iv' -> iv'
  | None ->
      (* noise inverted the endpoints: swap the values, keeping closure *)
      let a = endpoint_value lo and b = endpoint_value hi in
      I.closed (Float.min a b) (Float.max a b)

let shift_endpoint delta = function
  | I.Neg_inf -> I.Neg_inf
  | I.Pos_inf -> I.Pos_inf
  | I.Closed x -> I.Closed (x +. delta)
  | I.Open x -> I.Open (x +. delta)

let shift_interval rng sigma iv =
  let lo = shift_endpoint (Pc_util.Rng.gaussian rng ~mu:0. ~sigma) iv.I.lo in
  let hi = shift_endpoint (Pc_util.Rng.gaussian rng ~mu:0. ~sigma) iv.I.hi in
  match I.make lo hi with
  | Some iv' -> iv'
  | None ->
      let a = endpoint_value lo and b = endpoint_value hi in
      I.closed (Float.min a b) (Float.max a b)

let corrupt_values_systematic rng ~sigma pcs =
  let shared =
    List.map (fun (a, _) -> (a, Pc_util.Rng.gaussian rng ~mu:0. ~sigma:1.)) sigma
  in
  List.map
    (fun (pc : Pc.t) ->
      let values =
        List.map
          (fun (attr, iv) ->
            match (List.assoc_opt attr sigma, List.assoc_opt attr shared) with
            | Some s, Some z when s > 0. ->
                let systematic = z *. s in
                let iv' = shift_interval rng (0.3 *. s) iv in
                let lo = shift_endpoint systematic iv'.I.lo in
                let hi = shift_endpoint systematic iv'.I.hi in
                (attr, Option.value (I.make lo hi) ~default:iv')
            | _ -> (attr, iv))
          pc.Pc.values
      in
      Pc.make ~name:pc.Pc.name ~pred:pc.Pc.pred ~values
        ~freq:(pc.Pc.freq_lo, pc.Pc.freq_hi) ())
    pcs

let corrupt_values_relative rng ~attrs ~scale pcs =
  (* systematic component: the analyst's mis-belief is shared across all
     the constraints she wrote (one draw per attribute), with a smaller
     idiosyncratic component per endpoint. Purely independent noise would
     average out over fine partitions and understate the risk. *)
  let shared =
    List.map (fun a -> (a, Pc_util.Rng.gaussian rng ~mu:0. ~sigma:1.)) attrs
  in
  List.map
    (fun (pc : Pc.t) ->
      let values =
        List.map
          (fun (attr, iv) ->
            match List.assoc_opt attr shared with
            | None -> (attr, iv)
            | Some z ->
                let w = I.width iv in
                if not (Float.is_finite w) || w = 0. || scale = 0. then (attr, iv)
                else begin
                  let unit = scale *. w /. 4. in
                  let systematic = z *. unit in
                  let iv' = shift_interval rng (0.3 *. unit) iv in
                  let lo = shift_endpoint systematic iv'.I.lo in
                  let hi = shift_endpoint systematic iv'.I.hi in
                  (attr, Option.value (I.make lo hi) ~default:iv')
                end)
          pc.Pc.values
      in
      Pc.make ~name:pc.Pc.name ~pred:pc.Pc.pred ~values
        ~freq:(pc.Pc.freq_lo, pc.Pc.freq_hi) ())
    pcs

let corrupt_values rng ~sigma pcs =
  List.map
    (fun (pc : Pc.t) ->
      let values =
        List.map
          (fun (attr, iv) ->
            match List.assoc_opt attr sigma with
            | None | Some 0. -> (attr, iv)
            | Some s -> (attr, corrupt_interval rng s iv))
          pc.Pc.values
      in
      Pc.make ~name:pc.Pc.name ~pred:pc.Pc.pred ~values
        ~freq:(pc.Pc.freq_lo, pc.Pc.freq_hi) ())
    pcs
