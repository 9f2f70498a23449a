exception Bad of int * string

let fail i msg = raise (Bad (i, msg))

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

let parse s =
  let n = String.length s in
  (* The byte at [i], or NUL past the end. A NUL takes the same error
     branch as the end of input everywhere except inside a string,
     where [string_lit] tests [i < n] itself. *)
  let get i = if i < n then String.unsafe_get s i else '\000' in
  let rec skip_ws i =
    match get i with ' ' | '\t' | '\n' | '\r' -> skip_ws (i + 1) | _ -> i
  in
  let literal i word v =
    let l = String.length word in
    let rec same k = k = l || (String.unsafe_get s (i + k) = word.[k] && same (k + 1)) in
    if i + l <= n && same 0 then (v, i + l) else fail i ("expected " ^ word)
  in
  let is_digit c = c >= '0' && c <= '9' in
  let number i0 =
    let rec digits i = if is_digit (get i) then digits (i + 1) else i in
    let i = if get i0 = '-' then i0 + 1 else i0 in
    let i =
      match get i with
      | '0' -> i + 1
      | c when is_digit c -> digits (i + 1)
      | _ -> fail i "expected digit"
    in
    let i =
      if get i = '.' then
        let j = digits (i + 1) in
        if j = i + 1 then fail j "expected fraction digits" else j
      else i
    in
    let i =
      match get i with
      | 'e' | 'E' ->
          let k = match get (i + 1) with '+' | '-' -> i + 2 | _ -> i + 1 in
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
  (* The escaped tail of a string, from its first backslash at [i]. *)
  let rec escaped buf i =
    if i >= n then fail i "unterminated string"
    else
      match String.unsafe_get s i with
      | '"' -> (Buffer.contents buf, i + 1)
      | '\\' -> (
          match get (i + 1) with
          | '"' -> Buffer.add_char buf '"'; escaped buf (i + 2)
          | '\\' -> Buffer.add_char buf '\\'; escaped buf (i + 2)
          | '/' -> Buffer.add_char buf '/'; escaped buf (i + 2)
          | 'b' -> Buffer.add_char buf '\b'; escaped buf (i + 2)
          | 'f' -> Buffer.add_char buf '\012'; escaped buf (i + 2)
          | 'n' -> Buffer.add_char buf '\n'; escaped buf (i + 2)
          | 'r' -> Buffer.add_char buf '\r'; escaped buf (i + 2)
          | 't' -> Buffer.add_char buf '\t'; escaped buf (i + 2)
          | 'u' ->
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
                    escaped buf (i + 12)
                  end
                  else fail i "unpaired surrogate"
                end
                else fail i "unpaired surrogate"
              end
              else begin
                add_utf8 buf cp;
                escaped buf (i + 6)
              end
          | _ -> fail i "bad escape")
      | c when Char.code c < 0x20 -> fail i "control char in string"
      | c -> Buffer.add_char buf c; escaped buf (i + 1)
  in
  (* A string without escapes, the common case, is one [String.sub]. *)
  let string_lit i =
    if get i <> '"' then fail i "expected '\"'";
    let start = i + 1 in
    let rec plain i =
      if i >= n then fail i "unterminated string"
      else
        match String.unsafe_get s i with
        | '"' -> (String.sub s start (i - start), i + 1)
        | '\\' ->
            let buf = Buffer.create (i - start + 16) in
            Buffer.add_substring buf s start (i - start);
            escaped buf i
        | c when Char.code c < 0x20 -> fail i "control char in string"
        | _ -> plain (i + 1)
    in
    plain start
  in
  let rec value i =
    let i = skip_ws i in
    match get i with
    | '{' -> obj (skip_ws (i + 1))
    | '[' -> arr (skip_ws (i + 1))
    | '"' ->
        let str, i = string_lit i in
        (Str str, i)
    | 't' -> literal i "true" (Bool true)
    | 'f' -> literal i "false" (Bool false)
    | 'n' -> literal i "null" Null
    | '-' | '0' .. '9' -> number i
    | _ -> fail i "expected a JSON value"
  and obj i =
    if get i = '}' then (Obj [], i + 1)
    else
      let rec members acc i =
        let i = skip_ws i in
        let k, i = string_lit i in
        let i =
          let i = skip_ws i in
          if get i = ':' then i + 1 else fail i "expected ':'"
        in
        let v, i = value i in
        let i = skip_ws i in
        match get i with
        | ',' -> members ((k, v) :: acc) (i + 1)
        | '}' -> (Obj (List.rev ((k, v) :: acc)), i + 1)
        | _ -> fail i "expected ',' or '}'"
      in
      members [] i
  and arr i =
    if get i = ']' then (Arr [], i + 1)
    else
      let rec elems acc i =
        let v, i = value i in
        let i = skip_ws i in
        match get i with
        | ',' -> elems (v :: acc) (i + 1)
        | ']' -> (Arr (List.rev (v :: acc)), i + 1)
        | _ -> fail i "expected ',' or ']'"
      in
      elems [] i
  in
  match value 0 with
  | v, i when skip_ws i = n -> Ok v
  | _, i -> Error (Printf.sprintf "trailing garbage at offset %d" (skip_ws i))
  | exception Bad (i, msg) -> Error (Printf.sprintf "%s at offset %d" msg i)

let validate s = Result.map ignore (parse s)

(* Runs of bytes that need no escape are copied with one
   [add_substring] each. *)
let escape_to buf str =
  Buffer.add_char buf '"';
  let n = String.length str in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get str i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf str !start (i - !start);
      start := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf str !start (n - !start);
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
        if Float.is_finite f then Pc_util.Float_text.add buf f
        else Buffer.add_string buf "null"
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

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
