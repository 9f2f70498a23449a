let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (Printf.sprintf "Stat.%s: empty" name)

(* Left folds written as loops over a local float, which the compiler
   keeps unboxed: same order, same bits, no allocation per element. *)
let sum xs =
  let s = ref 0. in
  for i = 0 to Array.length xs - 1 do
    s := !s +. Array.unsafe_get xs i
  done;
  !s

let mean xs =
  check_nonempty "mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter (fun x -> acc := !acc +. ((x -. m) ** 2.)) xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let minimum xs =
  check_nonempty "minimum" xs;
  let m = ref xs.(0) in
  for i = 0 to Array.length xs - 1 do
    m := Float.min !m (Array.unsafe_get xs i)
  done;
  !m

let maximum xs =
  check_nonempty "maximum" xs;
  let m = ref xs.(0) in
  for i = 0 to Array.length xs - 1 do
    m := Float.max !m (Array.unsafe_get xs i)
  done;
  !m

(* The same folds over the values [xs.(rows.(0..k-1))], continuing
   from [acc]: from [0.], [infinity] and [neg_infinity] they give
   [sum], [minimum] and [maximum] of those values bit for bit
   ([Float.min infinity x] and [Float.min x x] are both [x]), and a
   fold split into blocks that passes each block's result on gives the
   bits of the whole. [Float.min m x] is [m] when [x > m] (and
   [Float.max m x] is [m] when [x < m]), so only the other values go
   through [Float.min] or [Float.max], which test a sign bit (for
   signed zeros) by a C call. *)
let sum_rows acc xs rows k =
  let s = ref acc in
  for j = 0 to k - 1 do
    s := !s +. xs.(rows.(j))
  done;
  !s

let min_rows acc xs rows k =
  let m = ref acc in
  for j = 0 to k - 1 do
    let x = xs.(rows.(j)) in
    if not (x > !m) then m := Float.min !m x
  done;
  !m

let max_rows acc xs rows k =
  let m = ref acc in
  for j = 0 to k - 1 do
    let x = xs.(rows.(j)) in
    if not (x < !m) then m := Float.max !m x
  done;
  !m

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let median xs =
  check_nonempty "median" xs;
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n mod 2 = 1 then ys.(n / 2) else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.

let percentile xs p =
  check_nonempty "percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stat.percentile: p outside [0,100]";
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.of_int (int_of_float rank) |> Float.min (float_of_int (n - 2))) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(lo + 1) -. ys.(lo)))
  end

(* Acklam's inverse normal CDF approximation. *)
let normal_quantile p =
  if p <= 0. || p >= 1. then invalid_arg "Stat.normal_quantile: p outside (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let p_high = 1. -. p_low in
  if p < p_low then begin
    let q = sqrt (-2. *. log p) in
    let num =
      ((((((c.(0) *. q) +. c.(1)) *. q) +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
      *. q
      +. c.(5)
    in
    let den =
      ((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.
    in
    num /. den
  end
  else if p <= p_high then begin
    let q = p -. 0.5 in
    let r = q *. q in
    let num =
      (((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
      *. r
      +. a.(5)
    in
    let den =
      ((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r
      +. 1.
    in
    q *. num /. den
  end
  else begin
    let q = sqrt (-2. *. log (1. -. p)) in
    let num =
      ((((((c.(0) *. q) +. c.(1)) *. q) +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
      *. q
      +. c.(5)
    in
    let den =
      ((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.
    in
    -.(num /. den)
  end

let erf x =
  (* Abramowitz & Stegun formula 7.1.26 *)
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let a1 = 0.254829592
  and a2 = -0.284496736
  and a3 = 1.421413741
  and a4 = -1.453152027
  and a5 = 1.061405429
  and p = 0.3275911 in
  let t = 1. /. (1. +. (p *. x)) in
  let y =
    1.
    -. (((((((((a5 *. t) +. a4) *. t) +. a3) *. t) +. a2) *. t) +. a1)
        *. t
        *. exp (-.(x *. x)))
  in
  sign *. y

let normal_cdf x = 0.5 *. (1. +. erf (x /. sqrt 2.))

let log_sum_exp xs =
  if Array.length xs = 0 then neg_infinity
  else begin
    let m = maximum xs in
    if m = neg_infinity then neg_infinity
    else begin
      let acc = ref 0. in
      Array.iter (fun x -> acc := !acc +. exp (x -. m)) xs;
      m +. log !acc
    end
  end
