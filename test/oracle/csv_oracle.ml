(* The CSV reader as it stood before records were built in one pass:
   every field copied through a [Buffer] into a list of records, the
   lists reversed, blank records filtered out, then each record trimmed
   and mapped to a tuple and the tuples validated and copied again by
   [Relation.create]. *)

open Pc_data

type state = { buf : Buffer.t; mutable fields : string list; mutable in_quotes : bool }

let parse_records text =
  let st = { buf = Buffer.create 64; fields = []; in_quotes = false } in
  let records = ref [] in
  let flush_field () =
    st.fields <- Buffer.contents st.buf :: st.fields;
    Buffer.clear st.buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev st.fields :: !records;
    st.fields <- []
  in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if st.in_quotes then begin
      if c = '"' then
        if !i + 1 < n && text.[!i + 1] = '"' then begin
          Buffer.add_char st.buf '"';
          incr i
        end
        else st.in_quotes <- false
      else Buffer.add_char st.buf c
    end
    else begin
      match c with
      | '"' -> st.in_quotes <- true
      | ',' -> flush_field ()
      | '\n' -> flush_record ()
      | '\r' -> ()
      | c -> Buffer.add_char st.buf c
    end;
    incr i
  done;
  if st.in_quotes then failwith "Csv: unterminated quote";
  if Buffer.length st.buf > 0 || st.fields <> [] then flush_record ();
  (* drop fully-empty trailing records *)
  List.rev !records |> List.filter (function [ "" ] | [] -> false | _ -> true)

let infer_schema header rows =
  let ncols = List.length header in
  let numeric = Array.make ncols true in
  let nonempty = Array.make ncols false in
  List.iter
    (fun row ->
      List.iteri
        (fun i field ->
          if i < ncols && field <> "" then begin
            nonempty.(i) <- true;
            if Option.is_none (float_of_string_opt (String.trim field)) then
              numeric.(i) <- false
          end)
        row)
    rows;
  Schema.of_names
    (List.mapi
       (fun i name ->
         let kind =
           if numeric.(i) && nonempty.(i) then Schema.Numeric
           else Schema.Categorical
         in
         (name, kind))
       header)

let read_string ?schema text =
  match parse_records text with
  | [] -> failwith "Csv: empty input"
  | header :: rows ->
      let schema =
        match schema with
        | Some s ->
            if List.map String.trim header <> Schema.names s then
              invalid_arg "Csv.read_string: header does not match schema";
            s
        | None -> infer_schema (List.map String.trim header) rows
      in
      let kinds = Array.of_list (List.map (fun (a : Schema.attr) -> a.kind) (Schema.attrs schema)) in
      let names = Array.of_list (Schema.names schema) in
      let arity = Schema.arity schema in
      let tuples =
        List.mapi
          (fun lineno row ->
            if List.length row <> arity then
              failwith
                (Printf.sprintf "Csv: record %d has %d fields, expected %d"
                   (lineno + 2) (List.length row) arity);
            Array.of_list
              (List.mapi
                 (fun i field ->
                   match kinds.(i) with
                   | Schema.Numeric -> (
                       match float_of_string_opt (String.trim field) with
                       | Some x when Float.is_finite x -> Value.Num x
                       | Some _ ->
                           (* NaN/±inf would silently poison every bound
                              computed downstream; reject at the door *)
                           failwith
                             (Printf.sprintf
                                "Csv: record %d column %S: non-finite numeric \
                                 value %S"
                                (lineno + 2) names.(i) field)
                       | None ->
                           failwith
                             (Printf.sprintf
                                "Csv: record %d field %d: %S is not numeric"
                                (lineno + 2) (i + 1) field))
                   | Schema.Categorical -> Value.Str field)
                 row))
          rows
      in
      Relation.create schema tuples
