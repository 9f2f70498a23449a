type t = Random.State.t

let create seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bd1e995 |]

let int t n = Random.State.int t n
let float t x = Random.State.float t x

let uniform t ~lo ~hi =
  assert (lo <= hi);
  if lo = hi then lo else lo +. Random.State.float t (hi -. lo)

let bool t = Random.State.bool t

let gaussian t ~mu ~sigma =
  let rec draw () =
    let u1 = Random.State.float t 1. in
    if u1 <= 0. then draw ()
    else begin
      let u2 = Random.State.float t 1. in
      mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))
    end
  in
  draw ()

let pareto t ~scale ~shape =
  if scale <= 0. || shape <= 0. then invalid_arg "Rng.pareto: non-positive";
  let rec draw () =
    let u = Random.State.float t 1. in
    if u <= 0. then draw () else scale /. (u ** (1. /. shape))
  in
  draw ()

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let zipf_table ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf_table: n <= 0";
  let weights = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cum.(i) <- !acc
  done;
  cum.(n - 1) <- 1.;
  cum

let zipf_sample t table =
  let u = Random.State.float t 1. in
  (* first index whose cumulative probability covers u *)
  let lo = ref 0 and hi = ref (Array.length table - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if table.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1

let zipf t ~n ~s = zipf_sample t (zipf_table ~n ~s)

let shuffle t xs =
  let n = Array.length xs in
  for i = n - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let sample_without_replacement t k xs =
  let n = Array.length xs in
  let k = min k n in
  if k = 0 then [||]
  else begin
    let idx = Array.init n (fun i -> i) in
    (* partial Fisher–Yates: only the first k positions need shuffling *)
    for i = 0 to k - 1 do
      let j = i + Random.State.int t (n - i) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp
    done;
    Array.init k (fun i -> xs.(idx.(i)))
  end

let choose t xs =
  if Array.length xs = 0 then invalid_arg "Rng.choose: empty";
  xs.(Random.State.int t (Array.length xs))
