type endpoint = Neg_inf | Pos_inf | Closed of float | Open of float

type t = { lo : endpoint; hi : endpoint }

let check_finite = function
  | Closed x | Open x ->
      if not (Float.is_finite x) then
        invalid_arg "Interval: non-finite endpoint value"
  | Neg_inf | Pos_inf -> ()

(* Comparison of two endpoints viewed as *lower* bounds: which one is the
   stronger (larger) restriction. Open x is stronger than Closed x. *)
let compare_lower a b =
  match (a, b) with
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | (Closed x | Open x), (Closed y | Open y) when x <> y -> Float.compare x y
  | Closed _, Closed _ | Open _, Open _ -> 0
  | Closed _, Open _ -> -1
  | Open _, Closed _ -> 1

(* As *upper* bounds: Open x is stronger (smaller) than Closed x. *)
let compare_upper a b =
  match (a, b) with
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | (Closed x | Open x), (Closed y | Open y) when x <> y -> Float.compare x y
  | Closed _, Closed _ | Open _, Open _ -> 0
  | Closed _, Open _ -> 1
  | Open _, Closed _ -> -1

let nonempty lo hi =
  match (lo, hi) with
  | Pos_inf, _ | _, Neg_inf -> false
  | Neg_inf, _ | _, Pos_inf -> true
  | Closed x, Closed y -> x <= y
  | (Closed x | Open x), (Closed y | Open y) -> x < y

let make lo hi =
  check_finite lo;
  check_finite hi;
  if nonempty lo hi then Some { lo; hi } else None

let make_exn lo hi =
  match make lo hi with
  | Some t -> t
  | None -> invalid_arg "Interval.make_exn: empty interval"

let full = { lo = Neg_inf; hi = Pos_inf }
let point x = make_exn (Closed x) (Closed x)

let closed lo hi =
  if lo > hi then invalid_arg "Interval.closed: lo > hi";
  make_exn (Closed lo) (Closed hi)

let at_least x = make_exn (Closed x) Pos_inf
let at_most x = make_exn Neg_inf (Closed x)
let greater_than x = make_exn (Open x) Pos_inf
let less_than x = make_exn Neg_inf (Open x)

let contains { lo; hi } x =
  let above_lo =
    match lo with
    | Neg_inf -> true
    | Pos_inf -> false
    | Closed l -> x >= l
    | Open l -> x > l
  and below_hi =
    match hi with
    | Pos_inf -> true
    | Neg_inf -> false
    | Closed h -> x <= h
    | Open h -> x < h
  in
  above_lo && below_hi

let intersect a b =
  let lo = if compare_lower a.lo b.lo >= 0 then a.lo else b.lo in
  let hi = if compare_upper a.hi b.hi <= 0 then a.hi else b.hi in
  if nonempty lo hi then Some { lo; hi } else None

(* Both intervals are non-empty, so they meet iff each one's lower end
   is below the other's upper end. *)
let overlaps a b = nonempty a.lo b.hi && nonempty b.lo a.hi

let subset a b =
  (* a ⊆ b: b's lower bound no stronger than a's, same for upper *)
  compare_lower b.lo a.lo <= 0 && compare_upper b.hi a.hi >= 0

let complement { lo; hi } =
  let below =
    match lo with
    | Neg_inf -> []
    | Pos_inf -> [ full ]
    | Closed x -> [ { lo = Neg_inf; hi = Open x } ]
    | Open x -> [ { lo = Neg_inf; hi = Closed x } ]
  and above =
    match hi with
    | Pos_inf -> []
    | Neg_inf -> [ full ]
    | Closed x -> [ { lo = Open x; hi = Pos_inf } ]
    | Open x -> [ { lo = Closed x; hi = Pos_inf } ]
  in
  below @ above

let hull a b =
  let lo = if compare_lower a.lo b.lo <= 0 then a.lo else b.lo in
  let hi = if compare_upper a.hi b.hi >= 0 then a.hi else b.hi in
  { lo; hi }

let compare_lo a b = compare_lower a.lo b.lo
let compare_hi a b = compare_upper a.hi b.hi

let abuts a b =
  match (a.hi, b.lo) with
  | Closed x, Open y | Open x, Closed y -> x = y
  | _ -> false

(* Everything strictly below / strictly above an endpoint, as intervals.
   Used to split ℝ at an interval's edges; [None] when nothing is on that
   side (the endpoint is infinite). *)
let below_lo = function
  | Neg_inf -> None
  | Pos_inf -> Some full
  | Closed x -> Some { lo = Neg_inf; hi = Open x }
  | Open x -> Some { lo = Neg_inf; hi = Closed x }

let above_hi = function
  | Pos_inf -> None
  | Neg_inf -> Some full
  | Closed x -> Some { lo = Open x; hi = Pos_inf }
  | Open x -> Some { lo = Closed x; hi = Pos_inf }

let refine ivs =
  let cut piece iv =
    let part side = Option.bind side (intersect piece) in
    Option.to_list (part (below_lo iv.lo))
    @ Option.to_list (intersect piece iv)
    @ Option.to_list (part (above_hi iv.hi))
  in
  List.fold_left
    (fun pieces iv -> List.concat_map (fun piece -> cut piece iv) pieces)
    [ full ] ivs

let lo_value t =
  match t.lo with Closed x | Open x -> Some x | Neg_inf | Pos_inf -> None

let hi_value t =
  match t.hi with Closed x | Open x -> Some x | Neg_inf | Pos_inf -> None

let lo_float t =
  match t.lo with Closed x | Open x -> x | Neg_inf -> neg_infinity | Pos_inf -> infinity

let hi_float t =
  match t.hi with Closed x | Open x -> x | Pos_inf -> infinity | Neg_inf -> neg_infinity

let is_singleton t =
  match (t.lo, t.hi) with Closed a, Closed b -> a = b | _ -> false

let width t = hi_float t -. lo_float t

let midpoint t =
  match (lo_value t, hi_value t) with
  | Some l, Some h -> (l +. h) /. 2.
  | Some l, None -> if contains t l then l else l +. 1.
  | None, Some h -> if contains t h then h else h -. 1.
  | None, None -> 0.

(* Finite truncation used to sample from unbounded intervals. *)
let truncation = 1e6

let sample rng t =
  let lo = Float.max (lo_float t) (-.truncation)
  and hi = Float.min (hi_float t) truncation in
  if lo >= hi then midpoint t
  else begin
    let x = Pc_util.Rng.uniform rng ~lo ~hi in
    if contains t x then x else midpoint t
  end

let equal a b = a = b

let compare a b =
  let c = compare_lower a.lo b.lo in
  if c <> 0 then c else compare_upper a.hi b.hi

let pp ppf t =
  let lo_bracket, lo_str =
    match t.lo with
    | Neg_inf -> ("(", "-inf")
    | Pos_inf -> ("(", "+inf")
    | Closed x -> ("[", Printf.sprintf "%g" x)
    | Open x -> ("(", Printf.sprintf "%g" x)
  and hi_str, hi_bracket =
    match t.hi with
    | Pos_inf -> ("+inf", ")")
    | Neg_inf -> ("-inf", ")")
    | Closed x -> (Printf.sprintf "%g" x, "]")
    | Open x -> (Printf.sprintf "%g" x, ")")
  in
  Format.fprintf ppf "%s%s, %s%s" lo_bracket lo_str hi_str hi_bracket

let to_string t = Format.asprintf "%a" pp t

let add_key buf { lo; hi } =
  let ep = function
    | Neg_inf -> Buffer.add_string buf "-inf"
    | Pos_inf -> Buffer.add_string buf "+inf"
    | Closed x ->
        Buffer.add_char buf 'c';
        Pc_util.Float_text.add_hex buf x
    | Open x ->
        Buffer.add_char buf 'o';
        Pc_util.Float_text.add_hex buf x
  in
  Buffer.add_char buf '[';
  ep lo;
  Buffer.add_char buf ',';
  ep hi;
  Buffer.add_char buf ']'

let key t =
  let buf = Buffer.create 48 in
  add_key buf t;
  Buffer.contents buf
