(* The export checker on a fixture compiled here: a planted unused
   export, two interface values of one name of which only one has a
   caller, and a module that only a test reaches.

     test_export_check.exe OCAMLC EXPORT_CHECK *)

let fixture =
  [
    ("lib/a.mli", "val schema : string\nval used : int -> int\nval unused : int\n");
    ("lib/a.ml", "let schema = \"a\"\nlet used x = x + 1\nlet unused = 0\n");
    ("lib/b.mli", "val schema : string\nval name : string\n");
    ("lib/b.ml", "let schema = \"b\"\nlet name = \"b\"\n");
    ("lib/c.mli", "val twice : int -> int\n");
    ("lib/c.ml", "let twice x = 2 * x\n");
    ("bin/pcda.ml", "let () = print_string (A.schema ^ B.name)\n");
    ("bench/main.ml", "let () = print_int (A.used 1)\n");
    ("perfbench/main.ml", "let () = print_string B.name\n");
    ("test/t.ml", "let () = assert (C.twice 2 = 4)\n");
  ]

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
let ocamlc = absolute Sys.argv.(1)
let checker = absolute Sys.argv.(2)

(* Compiles the fixture with typed trees in a fresh directory, so that
   nothing of it lands in the build tree the checker reads in CI. *)
let build () =
  let dir = Filename.temp_dir "export_check" "" in
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)));
  List.iter
    (fun (path, text) ->
      let path = Filename.concat dir path in
      if not (Sys.file_exists (Filename.dirname path)) then Sys.mkdir (Filename.dirname path) 0o755;
      Out_channel.with_open_bin path (fun oc -> output_string oc text))
    fixture;
  let cmd =
    Printf.sprintf "cd %s && %s -bin-annot -I lib -c %s" (Filename.quote dir)
      (Filename.quote ocamlc)
      (String.concat " " (List.map fst fixture))
  in
  if Sys.command cmd <> 0 then Alcotest.failf "fixture does not compile: %s" cmd;
  dir

(* The checker's exit code and stdout lines on [dirs]. *)
let check dirs =
  let out = Filename.temp_file "export_check" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote checker)
         (String.concat " " (List.map Filename.quote dirs))
         (Filename.quote out))
  in
  let lines = In_channel.with_open_bin out In_channel.input_all |> String.split_on_char '\n' in
  Sys.remove out;
  (code, List.filter (( <> ) "") lines)

let dir = lazy (build ())

let test_findings () =
  let code, lines = check [ Lazy.force dir ] in
  Alcotest.(check (list string))
    "findings"
    [
      "lib/a.mli:3: A.unused has no caller outside its module";
      "lib/b.mli:1: B.schema has no caller outside its module";
      "lib/c.ml: C is not reached from bin/pcda.ml, bench/main.ml, perfbench/main.ml";
    ]
    lines;
  Alcotest.(check int) "exit code" 1 code

let test_missing_root () =
  let code, _ = check [ Filename.concat (Lazy.force dir) "lib" ] in
  Alcotest.(check int) "exit code" 2 code

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "export_check"
    [
      ( "fixture",
        [
          Alcotest.test_case "unused, equal names, test-only module" `Quick test_findings;
          Alcotest.test_case "missing root" `Quick test_missing_root;
        ] );
    ]
