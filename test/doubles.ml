(* Finite doubles that 12 significant digits cannot carry: -0.,
   subnormals, integers of 1e15 and above, sums like 0.1 + 0.2, and
   arbitrary bit patterns. Shared by the text round-trip properties. *)

let special =
  [
    -0.; 0.; 0.1 +. 0.2; 1. /. 3.; 0.1; 1234564.; 1e15; 1e15 +. 1.;
    9007199254740993.; 1e300; -1e300; 1e-300; -1e-300; 4.9e-324;
    -2.2250738585072009e-308; Float.max_float; -.Float.min_float;
  ]

let gen =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl special);
        ( 2,
          map2 ( +. ) (float_bound_inclusive 1.) (float_bound_inclusive 1.) );
        (1, map (fun x -> ldexp x (-30)) (float_bound_inclusive 1.));
        (1, map (fun x -> ldexp x (-1040)) (float_bound_inclusive 1.));
        ( 1,
          map2
            (fun m e -> ldexp (float_of_int m) e)
            (int_range 1 (1 lsl 40)) (int_range 10 60) );
        (1, float_bound_inclusive 2e6);
        (3, map Int64.float_of_bits ui64);
      ]
    |> map (fun x -> if Float.is_finite x then x else 0.5))

let arb = QCheck.make ~print:(Printf.sprintf "%h") gen
let bit_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
