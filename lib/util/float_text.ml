let reads_back s x =
  Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float x)

(* The general path: the shortest of [%.15g], [%.16g] and [%.17g] that
   reads back bit-equal. *)
let shortest x =
  let s15 = Printf.sprintf "%.15g" x in
  if reads_back s15 x then s15
  else
    let s16 = Printf.sprintf "%.16g" x in
    if reads_back s16 x then s16 else Printf.sprintf "%.17g" x

let digit n = Char.unsafe_chr (48 + n)

(* The decimal digits of [n >= 0], most significant first. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (digit (n mod 10))

let rec count_digits n = if n < 10 then 1 else 1 + count_digits (n / 10)

(* Powers of ten up to 1e22, all exact doubles. *)
let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* The least [k >= 1] with [|x| = m / 10^k] for an integer [m < 10^15]:
   the IEEE quotient [m /. 10^k] is the double nearest [m / 10^k], so
   equality says [|x|] reads back from the decimal [m e-k]. Such a
   decimal has at most 15 significant digits, so [%.15g] prints exactly
   it, and it reads back, so [%.15g] is what {!shortest} picks. Returns
   [m] (no trailing zero digit, since [k] is least) and [k], or [k = 0]
   when there is none. *)
let rec short_decimal a k =
  if k > 22 then (0, 0)
  else
    let p = Array.unsafe_get pow10 k in
    let m = Float.round (a *. p) in
    if m >= 1e15 then (0, 0)
    else if m /. p = a then (int_of_float m, k)
    else short_decimal a (k + 1)

(* [m e-k] in [%.15g]'s fixed layout, which it uses for a decimal
   exponent from -4 to 14. [k >= 1] digits follow the point. *)
let add_fixed buf m k =
  let d = count_digits m in
  if d > k then begin
    let p = int_of_float (Array.unsafe_get pow10 k) in
    add_digits buf (m / p);
    Buffer.add_char buf '.';
    let r = m mod p in
    for _ = 1 to k - count_digits r do
      Buffer.add_char buf '0'
    done;
    add_digits buf r
  end
  else begin
    Buffer.add_string buf "0.";
    for _ = 1 to k - d do
      Buffer.add_char buf '0'
    done;
    add_digits buf m
  end

let add buf x =
  let a = Float.abs x in
  if Float.is_integer x && a < 0x1p53 then begin
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_digits buf (int_of_float a)
  end
  else
    (* from 1e-4 on, [%.15g] prints in fixed notation *)
    let m, k = if a >= 1e-4 && a < 1e15 then short_decimal a 1 else (0, 0) in
    if k > 0 then begin
      if x < 0. then Buffer.add_char buf '-';
      add_fixed buf m k
    end
    else Buffer.add_string buf (shortest x)

let to_string x =
  let buf = Buffer.create 24 in
  add buf x;
  Buffer.contents buf

let hex_digits = "0123456789abcdef"

(* The bytes of [Printf.sprintf "%h" x] (the runtime's
   [caml_hexstring_of_float] with no precision), without the format
   interpreter: sign, [0x], the leading digit, the mantissa's hex
   digits with trailing zeros dropped, then [p] and the signed binary
   exponent. *)
let add_hex buf x =
  let bits = Int64.to_int (Int64.bits_of_float x) in
  if Float.sign_bit x then Buffer.add_char buf '-';
  let exp = (bits lsr 52) land 0x7FF in
  let frac = bits land ((1 lsl 52) - 1) in
  if exp = 0x7FF then Buffer.add_string buf (if frac = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string buf (if exp = 0 then "0x0" else "0x1");
    let exp = if exp > 0 then exp - 1023 else if frac = 0 then 0 else -1022 in
    if frac <> 0 then begin
      Buffer.add_char buf '.';
      let m = ref frac in
      while !m <> 0 do
        Buffer.add_char buf hex_digits.[!m lsr 48];
        m := (!m lsl 4) land ((1 lsl 52) - 1)
      done
    end;
    Buffer.add_string buf (if exp >= 0 then "p+" else "p");
    Buffer.add_string buf (string_of_int exp)
  end
