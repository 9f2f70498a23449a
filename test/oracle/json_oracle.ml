(* The JSON parser as it stood before the wire path stopped allocating
   per character: every byte read through an option, every string built
   in a [Buffer]. Kept as the oracle that the library's [Json.parse]
   must match value for value and error text for error text. *)

module J = Pc_obs.Json

exception Bad of int * string

let fail i msg = raise (Bad (i, msg))

open J

let parse s =
  let n = String.length s in
  let peek i = if i < n then Some s.[i] else None in
  let rec skip_ws i =
    match peek i with
    | Some (' ' | '\t' | '\n' | '\r') -> skip_ws (i + 1)
    | _ -> i
  in
  let literal i word v =
    let l = String.length word in
    if i + l <= n && String.sub s i l = word then (v, i + l)
    else fail i ("expected " ^ word)
  in
  let is_digit c = c >= '0' && c <= '9' in
  let number i0 =
    let rec digits i =
      match peek i with Some c when is_digit c -> digits (i + 1) | _ -> i
    in
    let i = match peek i0 with Some '-' -> i0 + 1 | _ -> i0 in
    let i =
      match peek i with
      | Some '0' -> i + 1
      | Some c when is_digit c -> digits (i + 1)
      | _ -> fail i "expected digit"
    in
    let i =
      match peek i with
      | Some '.' ->
          let j = digits (i + 1) in
          if j = i + 1 then fail j "expected fraction digits" else j
      | _ -> i
    in
    let i =
      match peek i with
      | Some ('e' | 'E') ->
          let k =
            match peek (i + 1) with Some ('+' | '-') -> i + 2 | _ -> i + 1
          in
          let j = digits k in
          if j = k then fail j "expected exponent digits" else j
      | _ -> i
    in
    match float_of_string_opt (String.sub s i0 (i - i0)) with
    | Some f -> (Num f, i)
    | None -> fail i0 "unparseable number"
  in
  let hex4 i =
    if i + 4 > n then fail i "bad \\u escape"
    else begin
      let v = ref 0 in
      for k = i to i + 3 do
        let c = s.[k] in
        let d =
          if is_digit c then Char.code c - Char.code '0'
          else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
          else if c >= 'A' && c <= 'F' then Char.code c - Char.code 'A' + 10
          else fail k "bad \\u escape"
        in
        v := (!v * 16) + d
      done;
      !v
    end
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_lit i =
    let i = match peek i with Some '"' -> i + 1 | _ -> fail i "expected '\"'" in
    let buf = Buffer.create 16 in
    let rec go i =
      match peek i with
      | None -> fail i "unterminated string"
      | Some '"' -> (Buffer.contents buf, i + 1)
      | Some '\\' -> (
          match peek (i + 1) with
          | Some '"' -> Buffer.add_char buf '"'; go (i + 2)
          | Some '\\' -> Buffer.add_char buf '\\'; go (i + 2)
          | Some '/' -> Buffer.add_char buf '/'; go (i + 2)
          | Some 'b' -> Buffer.add_char buf '\b'; go (i + 2)
          | Some 'f' -> Buffer.add_char buf '\012'; go (i + 2)
          | Some 'n' -> Buffer.add_char buf '\n'; go (i + 2)
          | Some 'r' -> Buffer.add_char buf '\r'; go (i + 2)
          | Some 't' -> Buffer.add_char buf '\t'; go (i + 2)
          | Some 'u' ->
              let cp = hex4 (i + 2) in
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                (* high surrogate: a \uXXXX low surrogate must follow *)
                if
                  i + 6 + 6 <= n
                  && s.[i + 6] = '\\'
                  && s.[i + 7] = 'u'
                then begin
                  let lo = hex4 (i + 8) in
                  if lo >= 0xDC00 && lo <= 0xDFFF then begin
                    add_utf8 buf
                      (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00));
                    go (i + 12)
                  end
                  else fail i "unpaired surrogate"
                end
                else fail i "unpaired surrogate"
              end
              else begin
                add_utf8 buf cp;
                go (i + 6)
              end
          | _ -> fail i "bad escape")
      | Some c when Char.code c < 0x20 -> fail i "control char in string"
      | Some c -> Buffer.add_char buf c; go (i + 1)
    in
    go i
  in
  let rec value i =
    let i = skip_ws i in
    match peek i with
    | Some '{' -> obj (skip_ws (i + 1))
    | Some '[' -> arr (skip_ws (i + 1))
    | Some '"' ->
        let str, i = string_lit i in
        (Str str, i)
    | Some 't' -> literal i "true" (Bool true)
    | Some 'f' -> literal i "false" (Bool false)
    | Some 'n' -> literal i "null" Null
    | Some ('-' | '0' .. '9') -> number i
    | _ -> fail i "expected a JSON value"
  and obj i =
    match peek i with
    | Some '}' -> (Obj [], i + 1)
    | _ ->
        let rec members acc i =
          let i = skip_ws i in
          let k, i = string_lit i in
          let i =
            match peek (skip_ws i) with
            | Some ':' -> skip_ws i + 1
            | _ -> fail (skip_ws i) "expected ':'"
          in
          let v, i = value i in
          let i = skip_ws i in
          match peek i with
          | Some ',' -> members ((k, v) :: acc) (i + 1)
          | Some '}' -> (Obj (List.rev ((k, v) :: acc)), i + 1)
          | _ -> fail i "expected ',' or '}'"
        in
        members [] i
  and arr i =
    match peek i with
    | Some ']' -> (Arr [], i + 1)
    | _ ->
        let rec elems acc i =
          let v, i = value i in
          let i = skip_ws i in
          match peek i with
          | Some ',' -> elems (v :: acc) (i + 1)
          | Some ']' -> (Arr (List.rev (v :: acc)), i + 1)
          | _ -> fail i "expected ',' or ']'"
        in
        elems [] i
  in
  match value 0 with
  | v, i when skip_ws i = n -> Ok v
  | _, i -> Error (Printf.sprintf "trailing garbage at offset %d" (skip_ws i))
  | exception Bad (i, msg) -> Error (Printf.sprintf "%s at offset %d" msg i)

(* The printer as it stood before plain runs were copied whole and
   numbers skipped the C formatter: one [Buffer.add_char] per plain
   byte, [Printf] for control characters, numbers through
   [Float_text_oracle]. *)
let escape_to buf str =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    str;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
        Buffer.add_string buf
          (if Float.is_finite f then Float_text_oracle.to_string f else "null")
    | Str str -> escape_to buf str
    | Arr vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          vs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_to buf k;
            Buffer.add_char buf ':';
            go v)
          kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf
