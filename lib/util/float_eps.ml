let eps = 1e-9

let approx_eq ?(eps = eps) a b =
  let diff = Float.abs (a -. b) in
  diff <= eps || diff <= eps *. Float.max (Float.abs a) (Float.abs b)

let leq ?(eps = eps) a b = a <= b +. eps
let lt ?(eps = eps) a b = a < b -. eps
let is_integer ?(eps = eps) x = Float.abs (x -. Float.round x) <= eps

let round_to_int x =
  if not (Float.is_finite x) then
    invalid_arg "Float_eps.round_to_int: non-finite";
  let r = Float.round x in
  if Float.abs r > float_of_int max_int then
    invalid_arg "Float_eps.round_to_int: out of int range";
  int_of_float r

let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x
