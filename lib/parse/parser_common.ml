(* Shared recursive-descent plumbing for the two parsers. *)

type state = { mutable tokens : Lexer.token list }

let make tokens = { tokens }

let peek st = match st.tokens with [] -> Lexer.Eof | t :: _ -> t

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let fail_expect st what =
  failwith
    (Format.asprintf "parse error: expected %s but found %a" what Lexer.pp_token
       (peek st))

let expect st token what =
  if peek st = token then advance st else fail_expect st what

(* Case-insensitive, byte for byte, with no lowercased copies. *)
let rec same_ci s kw i =
  i = String.length s
  || Char.lowercase_ascii s.[i] = Char.lowercase_ascii kw.[i] && same_ci s kw (i + 1)

let keyword_matches kw = function
  | Lexer.Ident s -> String.length s = String.length kw && same_ci s kw 0
  | _ -> false

let accept_keyword st kw =
  if keyword_matches kw (peek st) then begin
    advance st;
    true
  end
  else false

let expect_keyword st kw =
  if not (accept_keyword st kw) then fail_expect st (Printf.sprintf "keyword %s" kw)

let expect_ident st what =
  match peek st with
  | Lexer.Ident s ->
      advance st;
      s
  | _ -> fail_expect st what

let expect_number st what =
  match peek st with
  | Lexer.Number x ->
      advance st;
      x
  | _ -> fail_expect st what

(* '(' string (',' string)* ')' after IN / NOT IN. Numeric IN lists
   degrade to a disjunction a conjunction cannot represent; only
   categorical lists are supported. *)
let parse_string_list st =
  expect st Lexer.Lparen "( after IN";
  let rec values acc =
    match peek st with
    | Lexer.String s -> begin
        advance st;
        match peek st with
        | Lexer.Comma ->
            advance st;
            values (s :: acc)
        | _ -> List.rev (s :: acc)
      end
    | _ -> fail_expect st "string in IN list"
  in
  let vs = values [] in
  expect st Lexer.Rparen ") after IN list";
  vs

(* A comparison atom: ident op literal (or BETWEEN / IN / NOT IN forms). *)
let parse_atom st =
  let attr = expect_ident st "attribute name" in
  match peek st with
  | Lexer.Eq -> begin
      advance st;
      match peek st with
      | Lexer.Number x ->
          advance st;
          Pc_predicate.Atom.num_eq attr x
      | Lexer.String s ->
          advance st;
          Pc_predicate.Atom.cat_eq attr s
      | _ -> fail_expect st "number or string after ="
    end
  | Lexer.Neq -> begin
      advance st;
      match peek st with
      | Lexer.String s ->
          advance st;
          Pc_predicate.Atom.Cat_neq (attr, s)
      | _ -> fail_expect st "string after <>"
    end
  | Lexer.Le ->
      advance st;
      Pc_predicate.Atom.at_most attr (expect_number st "number after <=")
  | Lexer.Ge ->
      advance st;
      Pc_predicate.Atom.at_least attr (expect_number st "number after >=")
  | Lexer.Lt ->
      advance st;
      Pc_predicate.Atom.less_than attr (expect_number st "number after <")
  | Lexer.Gt ->
      advance st;
      Pc_predicate.Atom.greater_than attr (expect_number st "number after >")
  | Lexer.Ident _ when keyword_matches "between" (peek st) ->
      advance st;
      let lo = expect_number st "lower BETWEEN bound" in
      expect_keyword st "and";
      let hi = expect_number st "upper BETWEEN bound" in
      if lo > hi then failwith "parse error: BETWEEN bounds inverted";
      Pc_predicate.Atom.between attr lo hi
  | Lexer.Ident _ when keyword_matches "in" (peek st) ->
      advance st;
      Pc_predicate.Atom.Cat_in (attr, parse_string_list st)
  | Lexer.Ident _ when keyword_matches "not" (peek st) ->
      advance st;
      expect_keyword st "in";
      Pc_predicate.Atom.Cat_not_in (attr, parse_string_list st)
  | _ -> fail_expect st "comparison operator"

(* Conjoin [atom] onto [atoms]: a numeric range meets the first
   earlier range on its attribute that it overlaps, so [a >= 1 and a < 5]
   reads as the one range [1, 5) that [Pc_parser.to_dsl] printed that
   way. Ranges that miss each other stay as written. *)
let conj_atom atoms atom =
  let module A = Pc_predicate.Atom in
  match atom with
  | A.Num_range (a, iv) ->
      let rec meet = function
        | [] -> [ atom ]
        | (A.Num_range (b, jv) as first) :: rest when String.equal a b -> (
            match Pc_interval.Interval.intersect jv iv with
            | Some m -> A.Num_range (a, m) :: rest
            | None -> first :: meet rest)
        | first :: rest -> first :: meet rest
      in
      meet atoms
  | _ -> atoms @ [ atom ]

(* conjunction: TRUE | atom (AND atom)* *)
let parse_conj st =
  if accept_keyword st "true" then Pc_predicate.Pred.tt
  else begin
    let rec atoms acc =
      let acc = conj_atom acc (parse_atom st) in
      if accept_keyword st "and" then atoms acc else acc
    in
    Pc_predicate.Pred.conj (atoms [])
  end
