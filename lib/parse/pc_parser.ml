module P = Parser_common
module I = Pc_interval.Interval

(* value range: ident IN '[' num ',' num ']' *)
let parse_value_range st =
  let attr = P.expect_ident st "value-constraint attribute" in
  P.expect_keyword st "in";
  P.expect st Lexer.Lbracket "[ in value range";
  let lo = P.expect_number st "range lower bound" in
  P.expect st Lexer.Comma ", in value range";
  let hi = P.expect_number st "range upper bound" in
  P.expect st Lexer.Rbracket "] in value range";
  if lo > hi then failwith "parse error: value range inverted";
  (attr, I.closed lo hi)

let parse_values st =
  if P.accept_keyword st "none" then []
  else begin
    let rec ranges acc =
      let r = parse_value_range st in
      if P.accept_keyword st "and" then ranges (r :: acc) else List.rev (r :: acc)
    in
    ranges []
  end

let parse_constraint st =
  P.expect_keyword st "constraint";
  let name = P.expect_ident st "constraint name" in
  (* the colon after the name is optional *)
  (match P.peek st with Lexer.Colon -> P.advance st | _ -> ());
  let pred = P.parse_conj st in
  (* '=>' lexes as Eq Gt *)
  P.expect st Lexer.Eq "=> after predicate";
  P.expect st Lexer.Gt "=> after predicate";
  let values = parse_values st in
  P.expect st Lexer.Comma ", before count";
  P.expect_keyword st "count";
  P.expect st Lexer.Lbracket "[ in count range";
  let lo = P.expect_number st "count lower bound" in
  P.expect st Lexer.Comma ", in count range";
  let hi = P.expect_number st "count upper bound" in
  P.expect st Lexer.Rbracket "] in count range";
  P.expect st Lexer.Semicolon "; after constraint";
  let to_count what x =
    if Float.is_integer x && x >= 0. then int_of_float x
    else failwith (Printf.sprintf "parse error: %s must be a non-negative integer" what)
  in
  try
    Pc_core.Pc.make ~name ~pred ~values
      ~freq:(to_count "count lower bound" lo, to_count "count upper bound" hi)
      ()
  with Invalid_argument msg -> failwith (Printf.sprintf "parse error: %s" msg)

let parse string =
  let st = P.make (Lexer.tokenize string) in
  let rec go acc =
    match P.peek st with
    | Lexer.Eof -> List.rev acc
    | _ -> go (parse_constraint st :: acc)
  in
  go []

let parse_one string =
  match parse string with
  | [ pc ] -> pc
  | pcs -> failwith (Printf.sprintf "expected one constraint, found %d" (List.length pcs))

(* A quoted literal; an embedded quote is doubled, as the lexer reads it. *)
let string_to_dsl s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
let strings_to_dsl ss = String.concat ", " (List.map string_to_dsl ss)

let num = Pc_util.Float_text.to_string

(* Closed ranges print as [between] (or [=] for a point), anything else
   as one comparison per finite end, strict for an open one:
   [parse_conj] folds the pair back into one range. *)
let atom_to_dsl = function
  | Pc_predicate.Atom.Num_range (a, iv) -> begin
      let cmp op x = Printf.sprintf "%s %s %s" a op (num x) in
      match (iv.I.lo, iv.I.hi) with
      | I.Closed lo, I.Closed hi
        when I.is_singleton iv && Float.sign_bit lo = Float.sign_bit hi ->
          cmp "=" lo
      | I.Closed lo, I.Closed hi ->
          Printf.sprintf "%s between %s and %s" a (num lo) (num hi)
      | lo, hi -> (
          let ends closed strict = function
            | I.Closed x -> [ cmp closed x ]
            | I.Open x -> [ cmp strict x ]
            | I.Neg_inf | I.Pos_inf -> []
          in
          match ends ">=" ">" lo @ ends "<=" "<" hi with
          | [] -> "true"
          | cmps -> String.concat " and " cmps)
    end
  | Pc_predicate.Atom.Cat_eq (a, s) -> Printf.sprintf "%s = %s" a (string_to_dsl s)
  | Pc_predicate.Atom.Cat_neq (a, s) -> Printf.sprintf "%s <> %s" a (string_to_dsl s)
  | Pc_predicate.Atom.Cat_in (a, ss) -> Printf.sprintf "%s in (%s)" a (strings_to_dsl ss)
  | Pc_predicate.Atom.Cat_not_in (a, ss) ->
      Printf.sprintf "%s not in (%s)" a (strings_to_dsl ss)

let to_dsl (pc : Pc_core.Pc.t) =
  let pred =
    match pc.Pc_core.Pc.pred with
    | [] -> "true"
    | atoms -> String.concat " and " (List.map atom_to_dsl atoms)
  in
  let values =
    match pc.Pc_core.Pc.values with
    | [] -> "none"
    | vs ->
        String.concat " and "
          (List.map
             (fun (a, iv) ->
               Printf.sprintf "%s in [%s, %s]" a
                 (num (I.lo_float iv))
                 (num (I.hi_float iv)))
             vs)
  in
  Printf.sprintf "constraint %s %s => %s, count [%d, %d];" pc.Pc_core.Pc.name
    pred values pc.Pc_core.Pc.freq_lo pc.Pc_core.Pc.freq_hi
