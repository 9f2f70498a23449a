(* Every export has a caller, and every lib/ module a binary.

   Reads the typed trees (.cmt and .cmti) under each directory named on
   the command line and prints one line per finding:
   - a value of a lib/ interface that no other compilation unit refers
     to. Values are matched by the location of their declaration, so two
     modules' values of one name never stand in for each other;
   - a lib/ module outside the import closure of bin/pcda.ml,
     bench/main.ml and perfbench/main.ml.
   Exits 1 on any finding, 2 when a root's typed tree is missing.

     dune build @check
     dune build --root .perfbench/ws @perfbench/check
     dune exec test/tools/export_check.exe -- _build/default \
       .perfbench/ws/_build/default/perfbench *)

open Typedtree

let roots = [ "bin/pcda.ml"; "bench/main.ml"; "perfbench/main.ml" ]

type unit_info = {
  file : string;  (** the .cmt or .cmti read *)
  source : string;
  modname : string;
  imports : string list;
  annots : Cmt_format.binary_annots;
}

let rec typed_trees dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then typed_trees path acc
      else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
      then path :: acc
      else acc)
    acc (Sys.readdir dir)

let read file =
  let c = Cmt_format.read_cmt file in
  match c.cmt_sourcefile with
  | None -> None
  | Some source ->
      Some
        {
          file;
          source;
          modname = c.cmt_modname;
          (* an alias that [-no-alias-deps] never loaded has no digest *)
          imports = List.filter_map (fun (m, crc) -> Option.map (fun _ -> m) crc) c.cmt_imports;
          annots = c.cmt_annots;
        }

let in_lib u = String.starts_with ~prefix:"lib/" u.source

(* "Pc_core__Bounds" -> "Pc_core.Bounds" *)
let rec display modname =
  let n = String.length modname in
  let rec go i =
    if i + 1 >= n then modname
    else if modname.[i] = '_' && modname.[i + 1] = '_' then
      String.sub modname 0 i ^ "." ^ display (String.sub modname (i + 2) (n - i - 2))
    else go (i + 1)
  in
  go 0

let key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* Every value a unit refers to, by its declaration's location. *)
let record_uses used u =
  let expr self (e : expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> Hashtbl.replace used (key vd.val_loc) ()
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match u.annots with
  | Implementation s -> it.structure it s
  | _ -> ()

(* The values an interface declares, submodules included. *)
let rec exports prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd -> (prefix ^ "." ^ vd.val_name.txt, vd.val_val.val_loc) :: acc
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
        ->
          exports (prefix ^ "." ^ m) s.sig_items acc
      | _ -> acc)
    acc items

(* Executables' modules share dune's [Dune__exe] prefix, so they are
   told apart by the directory of their typed tree. *)
let node u m =
  if String.starts_with ~prefix:"Dune__exe__" m then Filename.dirname u.file ^ "/" ^ m
  else m

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  let units =
    List.concat_map (fun d -> typed_trees d []) dirs
    |> List.sort compare |> List.filter_map read
  in
  let impls =
    List.filter (fun u -> match u.annots with Implementation _ -> true | _ -> false) units
  in
  let root_units =
    List.map
      (fun root ->
        match List.filter (fun u -> u.source = root) impls with
        | [] ->
            Printf.eprintf "export_check: no typed tree of %s under %s\n" root
              (String.concat " " dirs);
            exit 2
        | us -> us)
      roots
  in
  let used = Hashtbl.create 4096 in
  List.iter (record_uses used) impls;
  let findings = ref 0 in
  let report fmt = incr findings; Printf.printf (fmt ^^ "\n") in
  List.iter
    (fun u ->
      match u.annots with
      | Interface s when in_lib u && Filename.check_suffix u.source ".mli" ->
          exports (display u.modname) s.sig_items []
          |> List.rev
          |> List.iter (fun (name, loc) ->
                 if not (Hashtbl.mem used (key loc)) then
                   report "%s:%d: %s has no caller outside its module" u.source
                     loc.Location.loc_start.pos_lnum name)
      | _ -> ())
    units;
  let imports = Hashtbl.create 256 in
  List.iter (fun u -> Hashtbl.add imports (node u u.modname) (List.map (node u) u.imports)) impls;
  let reached = Hashtbl.create 256 in
  let rec visit m =
    if not (Hashtbl.mem reached m) then begin
      Hashtbl.replace reached m ();
      List.iter (List.iter visit) (Hashtbl.find_all imports m)
    end
  in
  List.iter (List.iter (fun u -> visit (node u u.modname))) root_units;
  List.iter
    (fun u ->
      if in_lib u && Filename.check_suffix u.source ".ml"
         && not (Hashtbl.mem reached (node u u.modname))
      then
        report "%s: %s is not reached from %s" u.source (display u.modname)
          (String.concat ", " roots))
    impls;
  if !findings > 0 then exit 1
