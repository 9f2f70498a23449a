let reads_back s x =
  Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float x)

let to_string x =
  if Float.is_integer x && Float.abs x < 0x1p53 then Printf.sprintf "%.0f" x
  else
    let s15 = Printf.sprintf "%.15g" x in
    if reads_back s15 x then s15
    else
      let s16 = Printf.sprintf "%.16g" x in
      if reads_back s16 x then s16 else Printf.sprintf "%.17g" x

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
