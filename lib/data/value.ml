type t = Num of float | Str of string

let num x = Num x
let str s = Str s

let as_num = function
  | Num x -> x
  | Str s -> invalid_arg (Printf.sprintf "Value.as_num: %S is not numeric" s)

let as_str = function
  | Str s -> s
  | Num x -> invalid_arg (Printf.sprintf "Value.as_str: %g is not a string" x)

let equal a b =
  match (a, b) with
  | Num x, Num y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Num _, Str _ | Str _, Num _ -> false

let compare a b =
  match (a, b) with
  | Num x, Num y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Num _, Str _ -> -1
  | Str _, Num _ -> 1

let pp ppf = function
  | Num x -> Format.fprintf ppf "%g" x
  | Str s -> Format.fprintf ppf "%s" s

let to_string v = Format.asprintf "%a" pp v

let of_string s =
  match float_of_string_opt (String.trim s) with
  | Some x -> Num x
  | None -> Str s
