(* CSV reader: quoted fields may hold commas, escaped quotes ([""])
   and newlines; a CR outside quotes is dropped; blank records are
   skipped. One pass over the text: a plain field is one [String.sub],
   and each record goes straight into its tuple. *)

let unterminated = "Csv: unterminated quote"

type scanner = {
  text : string;
  buf : Buffer.t;  (* a field with a quote or a CR *)
  mutable pos : int;
  mutable fields : string array;  (* the record's fields, [0, nf) *)
  mutable nf : int;
}

(* The field at [s.pos]; leaves [pos] on the comma, newline or end of
   text that ends it. *)
let field s =
  let text = s.text in
  let n = String.length text in
  let start = s.pos in
  let rec plain i =
    if i < n then
      match String.unsafe_get text i with
      | ',' | '\n' | '"' | '\r' -> i
      | _ -> plain (i + 1)
    else i
  in
  let i = plain start in
  if i = n || String.unsafe_get text i = ',' || String.unsafe_get text i = '\n' then begin
    s.pos <- i;
    String.sub text start (i - start)
  end
  else begin
    let buf = s.buf in
    Buffer.clear buf;
    Buffer.add_substring buf text start (i - start);
    let rec outside i =
      if i = n then i
      else
        match String.unsafe_get text i with
        | ',' | '\n' -> i
        | '"' -> inside (i + 1)
        | '\r' -> outside (i + 1)
        | c ->
            Buffer.add_char buf c;
            outside (i + 1)
    and inside i =
      if i = n then failwith unterminated
      else
        match String.unsafe_get text i with
        | '"' when i + 1 < n && String.unsafe_get text (i + 1) = '"' ->
            Buffer.add_char buf '"';
            inside (i + 2)
        | '"' -> outside (i + 1)
        | c ->
            Buffer.add_char buf c;
            inside (i + 1)
    in
    s.pos <- outside i;
    Buffer.contents buf
  end

let push s f =
  if s.nf = Array.length s.fields then begin
    let a = Array.make (2 * s.nf) "" in
    Array.blit s.fields 0 a 0 s.nf;
    s.fields <- a
  end;
  s.fields.(s.nf) <- f;
  s.nf <- s.nf + 1

(* The next record that is not blank (a single empty field) into
   [s.fields]; [false] at the end of the text. *)
let rec next s =
  s.pos < String.length s.text
  && begin
       s.nf <- 0;
       let rec fields () =
         push s (field s);
         let at_comma = s.pos < String.length s.text && s.text.[s.pos] = ',' in
         s.pos <- s.pos + 1;
         if at_comma then fields ()
       in
       fields ();
       (not (s.nf = 1 && s.fields.(0) = "")) || next s
     end

(* A field of 1 to 15 ASCII digits after an optional ['-'] is an
   integer below 10^15, exact as a float, and [float_of_string] would
   give the same float: read it with a digit loop. [nan] for any other
   field. *)
let integer field =
  let n = String.length field in
  let start = if n > 0 && String.unsafe_get field 0 = '-' then 1 else 0 in
  if n - start < 1 || n - start > 15 then nan
  else begin
    let rec go i acc =
      if i = n then acc
      else
        match String.unsafe_get field i with
        | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48)
        | _ -> -1
    in
    let m = go start 0 in
    if m < 0 then nan else if start = 1 then -.float_of_int m else float_of_int m
  end

let number ~lineno ~schema i field =
  let x = integer field in
  if x = x then Value.Num x
  else
    match float_of_string_opt (String.trim field) with
    | Some x when Float.is_finite x -> Value.Num x
    | Some _ ->
        (* NaN/±inf would silently poison every bound computed
           downstream; reject at the door *)
        failwith
          (Printf.sprintf "Csv: record %d column %S: non-finite numeric value %S"
             (lineno + 2) (List.nth (Schema.names schema) i) field)
    | None ->
        failwith
          (Printf.sprintf "Csv: record %d field %d: %S is not numeric" (lineno + 2)
             (i + 1) field)

let check_arity ~lineno ~arity nf =
  if nf <> arity then
    failwith
      (Printf.sprintf "Csv: record %d has %d fields, expected %d" (lineno + 2) nf
         arity)

(* A column is numeric when it has a non-empty field and every
   non-empty field parses as a float once trimmed; fields past the
   header's width are ignored. *)
let infer_schema header (rows : Value.t array array) =
  let ncols = List.length header in
  let numeric = Array.make ncols true in
  let nonempty = Array.make ncols false in
  Array.iter
    (fun row ->
      for i = 0 to min ncols (Array.length row) - 1 do
        match row.(i) with
        | Value.Str "" | Value.Num _ -> ()
        | Value.Str field ->
            nonempty.(i) <- true;
            if Float.is_nan (integer field) && Option.is_none (float_of_string_opt (String.trim field))
            then numeric.(i) <- false
      done)
    rows;
  Schema.of_names
    (List.mapi
       (fun i name ->
         (name, if numeric.(i) && nonempty.(i) then Schema.Numeric else Schema.Categorical))
       header)

let read ?schema text =
  let s = { text; buf = Buffer.create 16; pos = 0; fields = Array.make 8 ""; nf = 0 } in
  if not (next s) then failwith "Csv: empty input";
  let header = List.init s.nf (fun i -> String.trim s.fields.(i)) in
  let rows = ref (Array.make 16 [||]) and count = ref 0 in
  let add row =
    if !count = Array.length !rows then begin
      let a = Array.make (2 * !count) [||] in
      Array.blit !rows 0 a 0 !count;
      rows := a
    end;
    !rows.(!count) <- row;
    incr count
  in
  let kinds schema = Array.of_list (List.map (fun (a : Schema.attr) -> a.kind) (Schema.attrs schema)) in
  match schema with
  | Some schema ->
      if header <> Schema.names schema then
        invalid_arg "Csv.read_string: header does not match schema";
      let kinds = kinds schema in
      let arity = Array.length kinds in
      while next s do
        let lineno = !count in
        check_arity ~lineno ~arity s.nf;
        add
          (Array.init arity (fun i ->
               let field = s.fields.(i) in
               match kinds.(i) with
               | Schema.Numeric -> number ~lineno ~schema i field
               | Schema.Categorical -> Value.Str field))
      done;
      Relation.adopt schema (Array.sub !rows 0 !count)
  | None ->
      while next s do
        add (Array.init s.nf (fun i -> Value.Str s.fields.(i)))
      done;
      let rows = Array.sub !rows 0 !count in
      let schema = infer_schema header rows in
      let kinds = kinds schema in
      let arity = Array.length kinds in
      Array.iteri
        (fun lineno row ->
          check_arity ~lineno ~arity (Array.length row);
          Array.iteri
            (fun i kind ->
              match (kind, row.(i)) with
              | Schema.Numeric, Value.Str field -> row.(i) <- number ~lineno ~schema i field
              | _ -> ())
            kinds)
        rows;
      Relation.adopt schema rows

(* Each quote outside a quoted run opens one and each inside closes it,
   except an escaped [""], whose two quotes leave the state as it was:
   the text ends inside quotes iff it holds an odd number of quotes. *)
let odd_quotes text =
  let rec go i odd =
    match String.index_from_opt text i '"' with
    | Some j -> go (j + 1) (not odd)
    | None -> odd
  in
  go 0 false

(* An unterminated quote is reported before any other fault of the
   text, wherever the reader stopped: [read] meets it only at the end
   of the text. *)
let read_string ?schema text =
  try read ?schema text with _ when odd_quotes text -> failwith unterminated

let read_file ?schema path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      read_string ?schema text)

let escape field =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field
  in
  if needs_quoting then begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else field

let write_string rel =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (Schema.names (Relation.schema rel)));
  Buffer.add_char buf '\n';
  Relation.iter
    (fun row ->
      let fields =
        Array.to_list row
        |> List.map (function
             | Value.Num x -> Pc_util.Float_text.to_string x
             | Value.Str s -> escape s)
      in
      Buffer.add_string buf (String.concat "," fields);
      Buffer.add_char buf '\n')
    rel;
  Buffer.contents buf

let write_file path rel =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (write_string rel))
