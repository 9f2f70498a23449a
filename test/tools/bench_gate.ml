(* CI perf-regression gate over the committed decomposition baseline.

   Usage:
     bench_gate --committed BENCH_decompose.json --fresh fresh.json

   Diffs a freshly measured baseline against the committed one with
   per-key tolerances: a fresh value more than the key's allowed
   fraction worse than the committed value (higher pivots/latency, lower
   throughput/speedup) fails the gate, as does any required schema key
   missing from either file, or a fresh schema_version older than the
   committed one. Exit 0 = gate passed, 1 = regression or schema
   violation, 2 = usage/IO error.

   Tolerances are deliberately per-key (one table below, not a global
   knob): pivot counts are deterministic and get the tight 25% bound the
   CI contract names, and wall-clock keys share that bound per the same
   contract — if a runner class proves noisier than that, widen the
   single affected row, not the gate. The serve path is gated by the
   benchmark's served workloads (perfbench/), not here. *)

module J = Pc_obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dotted-path lookup: "milp_solve_pivots.warm" *)
let lookup path v =
  let rec go segs v =
    match segs with
    | [] -> Some v
    | s :: rest -> ( match J.member s v with None -> None | Some v -> go rest v)
  in
  go (String.split_on_char '.' path) v

let num_at path v = Option.bind (lookup path v) J.to_num

type dir = Higher_better | Lower_better

(* (key, direction, allowed fractional regression) *)
let checks =
  [
    ("milp_solve_pivots.warm", Lower_better, 0.25);
    ("milp_solve_pivots.cold", Lower_better, 0.25);
    ("lp_pivots_total", Lower_better, 0.25);
    (* the smoke workload's wall is ~15 ms — scheduler noise swamps a
       tight bound, so this row only catches order-of-magnitude breaks *)
    ("end_to_end_bound.wall_s", Lower_better, 1.00);
    (* the ingest micro's wall times are ~ms-scale; the speedup ratio is
       the stable signal and carries the tight bound (plus the 5x hard
       floor below) *)
    ("incremental_rebound.rebound_ns", Lower_better, 1.00);
    ("incremental_rebound.speedup", Higher_better, 0.60);
  ]

(* the schema-v7 shape: all of these must exist in both files *)
let required =
  [
    "schema_version";
    "micro_ns_per_run";
    "decompose_dfs_rewrite.cells";
    "decompose_fdd.cells";
    "decompose_fdd.matches_dfs_rewrite";
    "milp_solve_pivots.warm";
    "milp_solve_pivots.cold";
    "lp_pivots_total";
    "lp_warm_starts";
    "fig8_simplex_scaling.sizes";
    "incremental_rebound.cells";
    "incremental_rebound.rebound_ns";
    "incremental_rebound.recompute_ns";
    "incremental_rebound.speedup";
    "incremental_rebound.answers_agree";
    "phase_totals_ns";
    "end_to_end_bound.wall_s";
  ]

let () =
  let committed = ref "" and fresh = ref "" in
  let specs =
    [
      ("--committed", Arg.Set_string committed, "FILE committed baseline");
      ("--fresh", Arg.Set_string fresh, "FILE freshly measured baseline");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench_gate: per-key perf-regression gate over BENCH_decompose.json";
  if !committed = "" || !fresh = "" then begin
    prerr_endline "bench_gate: --committed and --fresh are both required";
    exit 2
  end;
  let load label path =
    match J.parse (read_file path) with
    | Ok v -> v
    | Error msg ->
        Printf.eprintf "bench_gate: %s %s: invalid JSON: %s\n" label path msg;
        exit 2
    | exception Sys_error msg ->
        Printf.eprintf "bench_gate: %s\n" msg;
        exit 2
  in
  let cv = load "committed" !committed in
  let fv = load "fresh" !fresh in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        Printf.printf "FAIL  %s\n" s)
      fmt
  in
  (* 1. schema shape: every required key present in both files; the
     message names the offending file so a red CI log is actionable
     without reproducing locally *)
  List.iter
    (fun key ->
      if lookup key fv = None then
        fail "%s: missing from fresh baseline %s (v7 schema)" key !fresh;
      if lookup key cv = None then
        fail "%s: missing from committed baseline %s (v7 schema)" key
          !committed)
    required;
  (* 2. no schema downgrade: the fresh run must speak at least the
     committed schema (bench itself refuses the opposite overwrite) *)
  (match (num_at "schema_version" cv, num_at "schema_version" fv) with
  | Some c, Some f when f < c ->
      fail
        "schema_version: fresh %s carries v%g, older than v%g in committed %s \
         (rebuild bench from the matching checkout)"
        !fresh f c !committed
  | _ -> ());
  (* 3. per-key tolerance diffs *)
  List.iter
    (fun (key, dir, tol) ->
      match (num_at key cv, num_at key fv) with
      | Some c, Some f when Float.abs c > 1e-12 ->
          let reg =
            match dir with
            | Lower_better -> (f -. c) /. Float.abs c
            | Higher_better -> (c -. f) /. Float.abs c
          in
          let verdict = if reg > tol then "FAIL" else "ok" in
          if reg > tol then incr failures;
          Printf.printf "%-4s  %-45s committed %14.2f  fresh %14.2f  regression %+6.1f%% (tol %.0f%%)\n"
            verdict key c f (100. *. reg) (100. *. tol)
      | Some _, Some _ -> Printf.printf "ok    %-45s committed ~0, skipped\n" key
      | _ -> () (* missing keys already reported by the shape pass *))
    checks;
  (* 4. hard floors *)
  (match num_at "lp_warm_starts" fv with
  | Some w when w <= 0. ->
      fail "lp_warm_starts: warm path never engaged in fresh run %s" !fresh
  | _ -> ());
  (match num_at "incremental_rebound.speedup" fv with
  | Some s when s < 5. ->
      fail
        "incremental_rebound.speedup: %.2fx in fresh run %s is under the 5x \
         floor"
        s !fresh
  | _ -> ());
  if !failures > 0 then begin
    Printf.printf "bench gate FAILED: %d violation(s) (%s vs %s)\n" !failures
      !fresh !committed;
    exit 1
  end;
  Printf.printf "bench gate OK (%s vs %s)\n" !fresh !committed
