(* perfbench: one workload per run, end-to-end metrics untraced
   (--trace 0) or per-layer metrics from a separate traced run
   (--trace 1). The last stdout line is the JSON result.

   Workloads:
   - serve_hot: `pcda serve` in its own process, one connection cycling
     through 100 cached bound queries (all five aggregates) — the
     request path, no solver.
   - serve_ingest: the same server, one connection running a cyclic
     append / bound / retract / bound script — the store, cache
     invalidation, the incremental engines and the uncached miss path.
   - paper_batch: the paper's §6 batch in-process — the solver layers.

   --selftest runs the short determinism check instead. *)

(* The quality prefix of one workload, small: failed operations, the
   digest of the (query, answer, provenance) sequence, and the median
   over-estimation. *)
let digest ~pcda ~workdir = function
  | "serve_hot" -> Served.prefix_quality ~pcda ~workdir ~seed:7 ~ingest:false
  | "serve_ingest" -> Served.prefix_quality ~pcda ~workdir ~seed:7 ~ingest:true
  | "paper_batch" -> Paper.prefix_quality ~seed:7
  | w -> Util.fail "unknown workload %S" w

(* Each workload's prefix twice, each time in a fresh process (PC names
   come from a process-wide counter, so only a fresh process repeats a
   run exactly): the digests and medians must agree and nothing may
   fail. *)
let selftest ~pcda ~workdir =
  let once w =
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [| Sys.executable_name; "--digest"; "--workload"; w; "--pcda"; pcda;
           "--workdir"; workdir |]
    in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  in
  let ok =
    List.for_all
      (fun w ->
        let a = once w and b = once w in
        Printf.printf "%s: %s\n%!" w a;
        let ok = a <> "" && a = b && String.length a > 2 && String.sub a 0 2 = "0 " in
        if not ok then Printf.printf "%s: second run: %s\n%!" w b;
        ok)
      [ "serve_hot"; "serve_ingest"; "paper_batch" ]
  in
  exit (if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let pcda = ref "_build/default/bin/pcda.exe" and workdir = ref ".perfbench" in
  let self = ref false and only_digest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve_hot | serve_ingest | paper_batch");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--pcda", Arg.Set_string pcda, "PATH the pcda executable");
      ("--workdir", Arg.Set_string workdir, "DIR working files (server log, dumps)");
      ("--selftest", Arg.Set self, " run the determinism self-test");
      ("--digest", Arg.Set only_digest, " print the workload's small quality prefix");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  (* A stopped bench still stops its servers ([Server_proc]'s at_exit). *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  if not (Sys.file_exists !workdir) then Sys.mkdir !workdir 0o755;
  if not (Sys.file_exists !pcda) then Util.fail "no pcda executable at %s" !pcda;
  let pcda = !pcda and workdir = !workdir in
  if !self then selftest ~pcda ~workdir;
  if !only_digest then begin
    let failed, d, over = digest ~pcda ~workdir !workload in
    Printf.printf "%d %s %.17g\n" failed d over;
    exit 0
  end;
  let seed = !seed and seconds = float_of_int !seconds and traced = !trace <> 0 in
  let correct, attempted, failed, metrics =
    match !workload with
    | ("serve_hot" | "serve_ingest") as w ->
        let ingest = w = "serve_ingest" in
        if traced then Served_trace.run ~pcda ~workdir ~seed ~seconds ~ingest
        else Served.run ~pcda ~workdir ~seed ~seconds ~ingest
    | "paper_batch" ->
        if traced then Paper.run_traced ~seed ~seconds else Paper.run ~seed ~seconds
    | w -> Util.fail "unknown workload %S" w
  in
  print_endline (Util.result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
