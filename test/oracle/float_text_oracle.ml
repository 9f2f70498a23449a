(* The printer as it stood before integers and short decimals skipped
   the C formatter: [%.0f] for integers below 2^53, otherwise the
   shortest of [%.15g], [%.16g] and [%.17g] that reads back bit-equal. *)

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
