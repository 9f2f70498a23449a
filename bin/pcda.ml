(* pcda — predicate-constraint data analysis.

   Contingency analysis from the command line: given a CSV of the rows
   you *do* have, a file of predicate-constraints describing the rows you
   might be missing, and an aggregate query, prints the hard result range.

     pcda bound  --csv sales.csv --constraints pcs.txt \
                 --query "SELECT SUM(price) WHERE branch = 'Chicago'"
     pcda check  --csv history.csv --constraints pcs.txt
     pcda show   --constraints pcs.txt *)

open Cmdliner

(* I/O errors surface as [Failure] so every command's existing
   user-error path (one line on stderr, exit 2) covers unreadable
   paths too — cmdliner's [file] converter would reject them earlier
   but with usage noise and exit 124. *)
let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> s
  | exception Sys_error msg -> failwith msg

let read_csv path =
  try Pc_data.Csv.read_file path with Sys_error msg -> failwith msg

let constraints_arg =
  let doc = "File of predicate-constraints in the PC DSL." in
  Arg.(required & opt (some string) None & info [ "c"; "constraints" ] ~docv:"FILE" ~doc)

let csv_doc = "CSV file with the certain (observed) rows."

let csv_opt_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:csv_doc)

let csv_req_arg =
  Arg.(required & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:csv_doc)

let query_arg =
  let doc =
    "Aggregate query, e.g. \"SELECT SUM(price) WHERE branch = 'Chicago'\"."
  in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"SQL" ~doc)

let missing_only_arg =
  let doc = "Bound the missing rows only (skip the certain partition)." in
  Arg.(value & flag & info [ "missing-only" ] ~doc)

let group_by_arg =
  let doc = "Also break the result down per value of this categorical attribute." in
  Arg.(value & opt (some string) None & info [ "group-by" ] ~docv:"ATTR" ~doc)

let strategy_arg =
  let doc =
    "Cell decomposition strategy: dfs, dfs-rewrite, fdd, naive, or early:<k>."
  in
  Arg.(value & opt string "dfs-rewrite" & info [ "strategy" ] ~docv:"S" ~doc)

let timeout_arg =
  let doc =
    "Wall-clock deadline in seconds for the bound computation. On expiry \
     the answer degrades down the soundness ladder (exact, relaxed, \
     early-stopped, trivial) instead of failing; the rung used is printed."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let budget_arg =
  let doc =
    "Resource caps as comma-separated key=N pairs; keys: cells (cell \
     decomposition), sat (satisfiability checks), nodes (branch-and-bound \
     nodes), iters (simplex pivots). Example: --budget cells=500,nodes=100. \
     Exhaustion degrades the answer like --timeout."
  in
  Arg.(value & opt (some string) None & info [ "budget" ] ~docv:"SPEC" ~doc)

let trace_arg =
  let doc =
    "Record a structured trace of the bound pipeline (decompose, SAT, \
     LP/MILP, ladder rungs) and write it to $(docv) in Chrome trace_event \
     JSON — open with chrome://tracing or https://ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the metrics registry (counters and latency histograms) after \
     the run; with $(docv), write it there as JSON instead."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Enable instrumentation *before* any solver work runs. Tracing and the
   histogram side of the registry stay off (one branch per site) unless
   asked for. *)
let setup_obs ~trace ~metrics =
  if trace <> None then begin
    Pc_obs.Trace.set_enabled true;
    Pc_obs.Trace.reset ()
  end;
  if metrics <> None then Pc_obs.Registry.set_enabled true

(* Emit the requested artifacts. Called before any early [exit] so an
   infeasible answer still produces its trace. *)
let emit_obs ~trace ~metrics ?budget () =
  (match trace with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Pc_obs.Trace.to_chrome_json ()));
      Printf.printf "trace: %d spans -> %s\n"
        (List.length (Pc_obs.Trace.spans ()))
        path);
  match metrics with
  | None -> ()
  | Some dest ->
      (match budget with
      | None -> ()
      | Some b ->
          let parts =
            List.map
              (fun (r, n) ->
                Printf.sprintf "%s=%d" (Pc_budget.Budget.resource_name r) n)
              (Pc_budget.Budget.snapshot b)
          in
          Printf.printf "budget: %s\n" (String.concat " " parts));
      if dest = "-" then print_string (Pc_obs.Registry.dump_text ())
      else begin
        let oc = open_out dest in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Pc_obs.Registry.dump_json ()));
        Printf.printf "metrics: -> %s\n" dest
      end

let parse_budget_spec ~timeout s =
  let items =
    match s with
    | None -> Ok (None, None, None, None)
    | Some s ->
        List.fold_left
          (fun acc part ->
            Result.bind acc (fun (cells, sat, nodes, iters) ->
                let part = String.trim part in
                match String.index_opt part '=' with
                | None ->
                    Error
                      (Printf.sprintf "bad budget item %S (want key=N)" part)
                | Some i -> (
                    let k = String.trim (String.sub part 0 i) in
                    let v =
                      String.trim
                        (String.sub part (i + 1) (String.length part - i - 1))
                    in
                    match int_of_string_opt v with
                    | None ->
                        Error
                          (Printf.sprintf "budget %s: %S is not an integer" k v)
                    | Some n when n < 0 ->
                        Error
                          (Printf.sprintf "budget %s: %d is negative" k n)
                    | Some n -> (
                        match k with
                        | "cells" -> Ok (Some n, sat, nodes, iters)
                        | "sat" -> Ok (cells, Some n, nodes, iters)
                        | "nodes" -> Ok (cells, sat, Some n, iters)
                        | "iters" -> Ok (cells, sat, nodes, Some n)
                        | _ -> Error (Printf.sprintf "unknown budget key %S" k)))))
          (Ok (None, None, None, None))
          (String.split_on_char ',' s)
  in
  Result.map
    (fun (cells, sat_calls, nodes, iters) ->
      Pc_budget.Budget.spec ?timeout ?cells ?sat_calls ?nodes ?iters ())
    items

let parse_strategy s =
  match String.lowercase_ascii s with
  | "dfs" -> Ok Pc_core.Cells.Dfs
  | "dfs-rewrite" -> Ok Pc_core.Cells.Dfs_rewrite
  | "fdd" -> Ok Pc_core.Cells.Fdd
  | "naive" -> Ok Pc_core.Cells.Naive
  | s when String.length s > 6 && String.sub s 0 6 = "early:" -> begin
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some k -> Ok (Pc_core.Cells.Early_stop k)
      | None -> Error (Printf.sprintf "bad early-stop depth in %S" s)
    end
  | _ -> Error (Printf.sprintf "unknown strategy %S" s)

let load_constraints path =
  try Ok (Pc_core.Pc_set.make (Pc_parse.Pc_parser.parse (read_file path)))
  with Failure msg -> Error msg

(* Error-handling contract (pinned by test/cli/pcda.t): every
   user-input error — bad path, parse error, malformed spec — is one
   line on stderr and exit 2; anything else escaping a command is a bug,
   reported as an internal error (exit 125), never an uncaught
   exception. *)
let with_errors f =
  match f () with
  | Ok () -> `Ok ()
  | Error msg ->
      Printf.eprintf "pcda: error: %s\n" msg;
      exit 2
  | exception e ->
      Printf.eprintf "pcda: internal error: %s\n" (Printexc.to_string e);
      exit 125

(* ---- bound ---- *)

let print_answer = function
  | Pc_core.Bounds.Range r ->
      Printf.printf "%s\n" (Pc_core.Range.to_string r);
      (* %g rounds to nearest: it could print an upper end below the
         computed one *)
      let num = Pc_util.Float_text.to_string in
      Printf.printf "  lower bound: %s%s\n" (num r.Pc_core.Range.lo)
        (if r.Pc_core.Range.lo_exact then " (attained)" else "");
      Printf.printf "  upper bound: %s%s\n" (num r.Pc_core.Range.hi)
        (if r.Pc_core.Range.hi_exact then " (attained)" else "")
  | Pc_core.Bounds.Empty ->
      print_endline
        "empty: no consistent missing-data instance puts a row in the query \
         region (aggregate undefined)"
  | Pc_core.Bounds.Infeasible ->
      print_endline
        "infeasible: no relation satisfies these constraints — check them \
         with `pcda check`"

let short_answer = function
  | Pc_core.Bounds.Range r -> Pc_core.Range.to_string r
  | Pc_core.Bounds.Empty -> "(empty)"
  | Pc_core.Bounds.Infeasible -> "(infeasible)"

let bound_cmd =
  let run csv constraints query missing_only strategy group_by timeout budget
      trace metrics =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        setup_obs ~trace ~metrics;
        let* set = load_constraints constraints in
        let* strategy = parse_strategy strategy in
        let* query =
          try Ok (Pc_parse.Query_parser.parse query) with Failure m -> Error m
        in
        let opts = { Pc_core.Bounds.default_opts with Pc_core.Bounds.strategy } in
        let budgeted = timeout <> None || budget <> None in
        let* spec = parse_budget_spec ~timeout budget in
        let b = Pc_budget.Budget.start spec in
        let* outcome =
          try
            match (csv, missing_only) with
            | Some path, false ->
                let certain = read_csv path in
                Result.map
                  (fun () ->
                    Pc_core.Bounds.bound_budgeted ~opts ~budget:b ~certain set
                      query)
                  (Pc_query.Query.check_schema
                     (Pc_data.Relation.schema certain)
                     query)
            | _, _ -> Ok (Pc_core.Bounds.bound_budgeted ~opts ~budget:b set query)
          with
          | Failure m -> Error m
          | Invalid_argument m -> Error m
        in
        let answer = outcome.Pc_core.Bounds.answer in
        print_answer answer;
        if budgeted then begin
          let s = outcome.Pc_core.Bounds.stats in
          Printf.printf
            "  provenance: %s (cells=%d sat=%d nodes=%d iters=%d%s)\n"
            (Pc_core.Bounds.provenance_name s.Pc_core.Bounds.provenance)
            s.Pc_core.Bounds.cells s.Pc_core.Bounds.sat_calls
            s.Pc_core.Bounds.milp_nodes s.Pc_core.Bounds.lp_iterations
            (if s.Pc_core.Bounds.deadline_hit then ", deadline hit" else "")
        end;
        (match (group_by, csv) with
        | None, _ -> ()
        | Some _, None ->
            print_endline "(--group-by needs --csv for the group keys)"
        | Some by, Some path ->
            let certain = read_csv path in
            let result =
              Pc_core.Group_by.bound ~opts set ~certain ~by query
            in
            print_endline "per-group breakdown:";
            List.iter
              (fun (key, a) ->
                Printf.printf "  %-20s %s\n"
                  (Pc_data.Value.to_string key)
                  (short_answer a))
              result.Pc_core.Group_by.groups;
            match result.Pc_core.Group_by.residual with
            | Some a -> Printf.printf "  %-20s %s\n" "(other keys)" (short_answer a)
            | None -> ());
        emit_obs ~trace ~metrics ~budget:b ();
        (match answer with
        | Pc_core.Bounds.Infeasible ->
            (* distinct exit code so scripts can tell "constraints admit no
               relation" (3) from usage/parse errors (124) *)
            flush stdout;
            exit 3
        | Pc_core.Bounds.Range _ | Pc_core.Bounds.Empty -> ());
        Ok ())
  in
  let doc = "Compute the hard result range of an aggregate query." in
  let exits =
    Cmd.Exit.info 3 ~doc:"the constraint set is infeasible (no relation satisfies it)."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "bound" ~doc ~exits)
    Term.(
      ret
        (const run $ csv_opt_arg $ constraints_arg $ query_arg
       $ missing_only_arg $ strategy_arg $ group_by_arg $ timeout_arg
       $ budget_arg $ trace_arg $ metrics_arg))

(* ---- check ---- *)

let check_cmd =
  let run csv constraints =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        let* set = load_constraints constraints in
        let* rel =
          try Ok (read_csv csv) with Failure m -> Error m
        in
        let violations = Pc_core.Pc_set.violations rel set in
        let closed = Pc_core.Pc_set.closed_over rel set in
        if violations = [] then
          Printf.printf "all %d constraints hold on %d rows\n"
            (Pc_core.Pc_set.size set)
            (Pc_data.Relation.cardinality rel)
        else begin
          List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations
        end;
        if not closed then
          print_endline
            "WARNING: some rows satisfy no predicate — the set is not closed \
             over this data, so result ranges would not be guaranteed";
        if violations = [] then Ok () else Error "constraints violated")
  in
  let doc =
    "Test constraints against historical data (are they believable?)."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(ret (const run $ csv_req_arg $ constraints_arg))

(* ---- show ---- *)

let show_cmd =
  let run constraints =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        let* set = load_constraints constraints in
        List.iter
          (fun pc -> print_endline (Pc_parse.Pc_parser.to_dsl pc))
          (Pc_core.Pc_set.pcs set);
        Printf.printf "-- %d constraints, %s\n" (Pc_core.Pc_set.size set)
          (if Pc_core.Pc_set.is_disjoint set then
             "disjoint (fast greedy solving applies)"
           else "overlapping (cell decomposition applies)");
        Ok ())
  in
  let doc = "Parse, normalize and print a constraint file." in
  Cmd.v (Cmd.info "show" ~doc) Term.(ret (const run $ constraints_arg))

(* ---- generate ---- *)

let generate_cmd =
  let attrs_arg =
    let doc = "Comma-separated partition attributes." in
    Arg.(
      required
      & opt (some (list ~sep:',' string)) None
      & info [ "attrs" ] ~docv:"A,B" ~doc)
  in
  let n_arg =
    let doc = "Target number of constraints." in
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc)
  in
  let exact_arg =
    let doc =
      "Record exact per-bucket counts (two-sided bounds) instead of \
       at-most counts."
    in
    Arg.(value & flag & info [ "exact-counts" ] ~doc)
  in
  let out_arg =
    let doc = "Output constraint file (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run csv attrs n exact out =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        let* rel = try Ok (read_csv csv) with Failure m -> Error m in
        let* pcs =
          try
            Ok
              (Pc_core.Generate.corr_partition ~exact_counts:exact rel ~attrs ~n ())
          with
          | Invalid_argument m -> Error m
          | Not_found ->
              Error "a partition attribute is missing from the CSV schema"
        in
        let text =
          String.concat "\n" (List.map Pc_parse.Pc_parser.to_dsl pcs) ^ "\n"
        in
        (match out with
        | None -> print_string text
        | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc text);
            Printf.printf "wrote %d constraints to %s\n" (List.length pcs) path);
        Ok ())
  in
  let doc =
    "Derive equi-cardinality partition constraints (Corr-PC) from a CSV."
  in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(ret (const run $ csv_req_arg $ attrs_arg $ n_arg $ exact_arg $ out_arg))

(* ---- workload ---- *)

let workload_cmd =
  let queries_arg =
    let doc = "Number of random queries to generate." in
    Arg.(value & opt int 100 & info [ "queries" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Random seed for query generation (reproducible workloads)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let agg_arg =
    let doc = "Aggregate: count, sum:ATTR, avg:ATTR, min:ATTR or max:ATTR." in
    Arg.(value & opt string "count" & info [ "agg" ] ~docv:"AGG" ~doc)
  in
  let attrs_arg =
    let doc = "Comma-separated attributes the random predicates range over." in
    Arg.(
      required
      & opt (some (list ~sep:',' string)) None
      & info [ "attrs" ] ~docv:"A,B" ~doc)
  in
  let parse_agg s =
    let split prefix =
      let lp = String.length prefix in
      if
        String.length s > lp
        && String.lowercase_ascii (String.sub s 0 lp) = prefix
      then Some (String.sub s lp (String.length s - lp))
      else None
    in
    match String.lowercase_ascii s with
    | "count" -> Ok Pc_workload.Querygen.Count
    | _ -> (
        match
          List.find_map
            (fun (p, mk) -> Option.map mk (split p))
            [
              ("sum:", fun a -> Pc_workload.Querygen.Sum a);
              ("avg:", fun a -> Pc_workload.Querygen.Avg a);
              ("min:", fun a -> Pc_workload.Querygen.Min a);
              ("max:", fun a -> Pc_workload.Querygen.Max a);
            ]
        with
        | Some agg -> Ok agg
        | None ->
            Error
              (Printf.sprintf
                 "unknown aggregate %S (want count, sum:ATTR, avg:ATTR, \
                  min:ATTR or max:ATTR)"
                 s))
  in
  let run csv constraints n seed agg attrs timeout budget metrics =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        setup_obs ~trace:None ~metrics;
        let* set = load_constraints constraints in
        let* missing =
          try Ok (read_csv csv) with Failure m -> Error m
        in
        let* agg = parse_agg agg in
        let* queries =
          try
            Ok
              (Pc_workload.Querygen.random_queries
                 (Pc_util.Rng.create seed)
                 missing ~attrs ~agg ~n)
          with Invalid_argument m | Failure m -> Error m
        in
        let* spec = parse_budget_spec ~timeout budget in
        let baseline =
          if timeout = None && budget = None then
            Pc_workload.Runner.of_pc_set "pc" set
          else Pc_workload.Runner.of_pc_set_budgeted "pc" ~spec set
        in
        let summaries =
          Pc_workload.Runner.run ~baselines:[ baseline ] ~missing ~queries
        in
        List.iter
          (fun (label, s) ->
            Printf.printf "%s %s\n" label (Pc_workload.Report.json_of_summary s))
          summaries;
        emit_obs ~trace:None ~metrics ();
        Ok ())
  in
  let doc =
    "Evaluate the constraint set on a reproducible random query workload \
     (the missing partition is the CSV; prints one JSON summary per \
     baseline: failure rate, over-estimation, degradation rungs)."
  in
  Cmd.v
    (Cmd.info "workload" ~doc)
    Term.(
      ret
        (const run $ csv_req_arg $ constraints_arg $ queries_arg $ seed_arg
       $ agg_arg $ attrs_arg $ timeout_arg $ budget_arg $ metrics_arg))

(* ---- explain ---- *)

let explain_cmd =
  let run constraints query =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        let* set = load_constraints constraints in
        let* query =
          try Ok (Pc_parse.Query_parser.parse query) with Failure m -> Error m
        in
        let report = Pc_core.Explain.leave_one_out set query in
        Format.printf "%a@." Pc_core.Explain.pp_report report;
        (match Pc_core.Explain.binding report with
        | [] ->
            print_endline
              "no single constraint is binding: the bound is redundantly \
               supported"
        | binding ->
            print_endline "binding constraints (most influential first):";
            List.iter
              (fun (i : Pc_core.Explain.impact) ->
                Printf.printf "  %-24s widens hi by %g / lo by %g when relaxed\n"
                  i.Pc_core.Explain.name i.Pc_core.Explain.hi_widening
                  i.Pc_core.Explain.lo_widening)
              binding);
        Ok ())
  in
  let doc = "Which constraints does a bound actually rest on?" in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(ret (const run $ constraints_arg $ query_arg))

(* ---- serve ---- *)

let host_arg =
  let doc = "Address to bind (serve) or connect to (client)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let serve_cmd =
  let port_arg =
    let doc = "TCP port; 0 picks an ephemeral port (printed at startup)." in
    Arg.(value & opt int 0 & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let constraints_opt_arg =
    let doc = "Preload this constraint file as dataset \"default\"." in
    Arg.(value & opt (some string) None & info [ "c"; "constraints" ] ~docv:"FILE" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Admission-control knob: past 1/4 of this many in-flight requests \
       answers degrade to LP dual bounds, past 1/2 to early-stopped \
       decomposition, at or past it to the trivial floor. 0 disables \
       admission control."
    in
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let faults_arg =
    let doc =
      "Arm the deterministic fault-injection harness (testing only): \
       comma-separated key=V pairs; keys: seed, slow_ms, skew_s and the \
       per-site rates sat_fail, sat_slow, lp_doubt, clock_skew, sock_tear, \
       sock_close. Example: --faults seed=7,sat_fail=0.2,sock_tear=0.05."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let flight_arg =
    let doc =
      "Write the flight-recorder JSON (last N request records) to this \
       file at drain and whenever a reply cannot be delivered."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let flight_capacity_arg =
    let doc = "Flight-recorder ring capacity (records retained)." in
    Arg.(value & opt int 512 & info [ "flight-capacity" ] ~docv:"N" ~doc)
  in
  let p99_slo_arg =
    let doc =
      "Latency SLO in milliseconds: when the live windowed 1s p99 \
       exceeds it, admission sheds to cheaper ladder rungs (one rung \
       per doubling past the SLO)."
    in
    Arg.(value & opt (some float) None & info [ "p99-slo" ] ~docv:"MS" ~doc)
  in
  let run host port constraints csv timeout budget max_inflight faults flight
      flight_capacity p99_slo trace metrics =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        setup_obs ~trace ~metrics;
        let* spec = parse_budget_spec ~timeout budget in
        let* () =
          match faults with
          | None -> Ok ()
          | Some s ->
              Result.map Pc_fault.Fault.configure
                (Pc_fault.Fault.config_of_string s)
        in
        let metrics_path =
          match metrics with Some "-" -> None | m -> m
        in
        let cfg =
          {
            Pc_server.Server.default_config with
            Pc_server.Server.host;
            port;
            base_spec = spec;
            policy =
              Pc_server.Admission.policy ?p99_slo_ms:p99_slo ~max_inflight ();
            trace_path = trace;
            metrics_path;
            flight_path = flight;
            flight_capacity;
          }
        in
        let* srv =
          try Ok (Pc_server.Server.create cfg)
          with Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot bind %s:%d: %s" host port
                 (Unix.error_message e))
        in
        let* () =
          match constraints with
          | None -> Ok ()
          | Some cpath ->
              let* text =
                try Ok (read_file cpath) with Failure m -> Error m
              in
              let* csv =
                match csv with
                | None -> Ok None
                | Some p -> (
                    try Ok (Some (read_file p)) with Failure m -> Error m)
              in
              Result.map ignore
                (Pc_server.Server.load_dataset srv ~name:"default"
                   ~constraints:text ?csv ())
        in
        (* handlers go in before the banner: a supervisor that reacts to
           "listening on" with a signal must get the drain, not the
           default kill *)
        Pc_server.Server.install_signal_handlers srv;
        Printf.printf "listening on %s:%d\n%!" host (Pc_server.Server.port srv);
        Pc_server.Server.run srv;
        if metrics = Some "-" then print_string (Pc_obs.Registry.dump_text ());
        print_endline "drained";
        Ok ())
  in
  let doc =
    "Serve bound queries over a line-oriented JSON protocol (ops: ping, \
     load, bound, append, retract, stats, telemetry, shutdown; one object \
     per line). \
     Requests degrade under load per the admission policy and every reply \
     carries its provenance; the telemetry op serves live windowed SLOs, \
     a Prometheus exposition, and the flight recorder; SIGTERM/SIGINT \
     drain gracefully. See DESIGN.md, \"Serving, admission control & \
     fault injection\" and \"Live telemetry & flight recorder\"."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ host_arg $ port_arg $ constraints_opt_arg $ csv_opt_arg
       $ timeout_arg $ budget_arg $ max_inflight_arg $ faults_arg
       $ flight_arg $ flight_capacity_arg $ p99_slo_arg $ trace_arg
       $ metrics_arg))

(* ---- client ---- *)

let connect ~host ~port =
  try Ok (Pc_server.Client.connect ~host ~port)
  with Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot connect to %s:%d: %s" host port
         (Unix.error_message e))

let client_cmd =
  let port_arg =
    let doc = "Server port." in
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let run host port =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        let* c = connect ~host ~port in
        let rec loop () =
          match input_line stdin with
          | exception End_of_file -> Ok ()
          | line -> (
              match Pc_server.Client.request c line with
              | Some reply ->
                  print_endline reply;
                  loop ()
              | None -> Error "connection closed by server")
        in
        let result = loop () in
        Pc_server.Client.close c;
        result)
  in
  let doc =
    "Drive a running `pcda serve`: reads request lines from stdin, prints \
     one reply line each."
  in
  Cmd.v (Cmd.info "client" ~doc) Term.(ret (const run $ host_arg $ port_arg))

(* ---- ingest ---- *)

let ingest_cmd =
  let module J = Pc_obs.Json in
  let port_arg =
    let doc = "Server port." in
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let dataset_arg =
    let doc = "Target dataset name on the server." in
    Arg.(value & opt string "default" & info [ "dataset" ] ~docv:"NAME" ~doc)
  in
  let batch_rows_arg =
    let doc = "Rows per append batch (the CSV is replayed in chunks)." in
    Arg.(value & opt int 256 & info [ "batch-rows" ] ~docv:"N" ~doc)
  in
  let retract_arg =
    let doc = "Retract this batch id instead of appending (no --csv needed)." in
    Arg.(value & opt (some int) None & info [ "retract" ] ~docv:"ID" ~doc)
  in
  let jfield v name =
    Option.value (Option.bind (J.member name v) J.to_num) ~default:0.
  in
  let one_request c line =
    match Pc_server.Client.request c line with
    | None -> Error "connection closed by server"
    | Some reply -> (
        match J.parse reply with
        | Error msg -> Error ("bad reply: " ^ msg)
        | Ok v -> (
            match J.member "ok" v with
            | Some (J.Bool true) -> Ok v
            | _ -> Error ("server refused: " ^ reply)))
  in
  let run host port dataset csv batch_rows retract =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        let* c = connect ~host ~port in
        let result =
          match retract with
          | Some batch_id ->
              let* v =
                one_request c
                  (J.to_string
                     (J.Obj
                        [
                          ("op", J.Str "retract");
                          ("dataset", J.Str dataset);
                          ("batch", J.Num (float_of_int batch_id));
                        ]))
              in
              Printf.printf
                "retracted batch %d: %.0f rows restored, version %.0f, %.0f \
                 cached replies evicted\n"
                batch_id (jfield v "rows") (jfield v "version")
                (jfield v "cache_evicted");
              Ok ()
          | None ->
              let* path =
                match csv with
                | Some p -> Ok p
                | None -> Error "ingest: --csv is required unless --retract"
              in
              let* text = try Ok (read_file path) with Failure m -> Error m in
              let* batch_rows =
                if batch_rows >= 1 then Ok batch_rows
                else Error "ingest: --batch-rows must be at least 1"
              in
              (* chunk on raw lines under the shared header; rows with
                 quoted embedded newlines are not supported here *)
              let lines =
                String.split_on_char '\n' text
                |> List.filter (fun l -> String.trim l <> "")
              in
              let* header, rows =
                match lines with
                | [] -> Error "ingest: empty CSV"
                | h :: rows -> Ok (h, rows)
              in
              (* one pass: [batch_rows] rows a chunk, the last one the
                 rest; [chunk] holds the current one reversed *)
              let rec split acc chunk k = function
                | [] -> List.rev (match chunk with [] -> acc | _ -> List.rev chunk :: acc)
                | row :: rest ->
                    if k = batch_rows then split (List.rev chunk :: acc) [ row ] 1 rest
                    else split acc (row :: chunk) (k + 1) rest
              in
              let chunks = split [] [] 0 rows in
              let total = List.length rows in
              let sent = ref 0 in
              let* () =
                List.fold_left
                  (fun acc chunk ->
                    let* () = acc in
                    let body =
                      String.concat "\n" (header :: chunk) ^ "\n"
                    in
                    let* v =
                      one_request c
                        (J.to_string
                           (J.Obj
                              [
                                ("op", J.Str "append");
                                ("dataset", J.Str dataset);
                                ("csv", J.Str body);
                              ]))
                    in
                    sent := !sent + List.length chunk;
                    Printf.printf
                      "batch %.0f: %.0f rows (%d/%d), version %.0f, %.0f \
                       constraints touched, %.0f cached replies evicted\n%!"
                      (jfield v "batch_id") (jfield v "rows") !sent total
                      (jfield v "version")
                      (match J.member "touched" v with
                      | Some (J.Arr l) -> float_of_int (List.length l)
                      | _ -> 0.)
                      (jfield v "cache_evicted");
                    Ok ())
                  (Ok ()) chunks
              in
              Printf.printf "appended %d rows in %d batches\n" total (List.length chunks);
              Ok ()
        in
        Pc_server.Client.close c;
        result)
  in
  let doc =
    "Stream a CSV into a running `pcda serve` as append batches (or \
     retract one batch by id). Each batch routes its rows through the \
     dataset's decision diagram, consumes missing-row budget, and evicts \
     only the cached replies it can have changed."
  in
  Cmd.v (Cmd.info "ingest" ~doc)
    Term.(
      ret
        (const run $ host_arg $ port_arg $ dataset_arg $ csv_opt_arg
       $ batch_rows_arg $ retract_arg))

(* ---- top ---- *)

let top_cmd =
  let module J = Pc_obs.Json in
  let port_arg =
    let doc = "Server port." in
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let once_arg =
    let doc = "Print one dashboard frame and exit (no screen clearing)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let prom_arg =
    let doc = "Print the Prometheus text exposition instead of the dashboard." in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let iterations_arg =
    let doc = "Stop after this many frames (0 = until interrupted)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let jget v names =
    List.fold_left (fun acc n -> Option.bind acc (J.member n)) (Some v) names
  in
  let jnum v names =
    Option.value (Option.bind (jget v names) J.to_num) ~default:0.
  in
  let render host port v =
    let b = Buffer.create 1024 in
    let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    addf "pcda top — %s:%d   uptime %.1fs   inflight %.0f   last id %.0f\n"
      host port (jnum v [ "uptime_s" ]) (jnum v [ "inflight" ])
      (jnum v [ "last_id" ]);
    addf "%-8s %9s %9s %9s %7s %7s %7s %7s\n" "window" "qps" "p50" "p99"
      "err%" "degr%" "hit%" "n";
    List.iter
      (fun w ->
        let f name = jnum v [ "windows"; w; name ] in
        addf "%-8s %9.1f %8.2fms %8.2fms %7.1f %7.1f %7.1f %7.0f\n" w
          (f "qps")
          (f "p50_ns" /. 1e6)
          (f "p99_ns" /. 1e6)
          (100. *. f "error_rate")
          (100. *. f "degraded_fraction")
          (100. *. f "cache_hit_rate")
          (f "n"))
      [ "1s"; "10s"; "60s" ];
    addf
      "totals   requests %.0f   errors %.0f   degraded %.0f   cache \
       %.0f/%.0f hit/miss\n"
      (jnum v [ "requests" ]) (jnum v [ "errors" ]) (jnum v [ "degraded" ])
      (jnum v [ "cache"; "hits" ])
      (jnum v [ "cache"; "misses" ]);
    addf
      "admitted full %.0f   dual-only %.0f   early-only %.0f   floor-only \
       %.0f\n"
      (jnum v [ "admission"; "full" ])
      (jnum v [ "admission"; "dual-only" ])
      (jnum v [ "admission"; "early-only" ])
      (jnum v [ "admission"; "floor-only" ]);
    Buffer.contents b
  in
  let run host port once prom interval iterations =
    with_errors (fun () ->
        let ( let* ) = Result.bind in
        let* c = connect ~host ~port in
        let req =
          if prom then {|{"op":"telemetry","view":"prometheus"}|}
          else {|{"op":"telemetry"}|}
        in
        let frames = if once then 1 else iterations in
        let clear = (not once) && Unix.isatty Unix.stdout in
        let rec loop i =
          match Pc_server.Client.request c req with
          | None -> Error "connection closed by server"
          | Some reply -> (
              match J.parse reply with
              | Error msg -> Error ("bad telemetry reply: " ^ msg)
              | Ok v -> (
                  match J.member "ok" v with
                  | Some (J.Bool true) ->
                      if clear then print_string "\027[2J\027[H";
                      (if prom then
                         match Option.bind (J.member "text" v) J.to_str with
                         | Some text -> print_string text
                         | None -> print_endline reply
                       else print_string (render host port v));
                      flush stdout;
                      if frames > 0 && i + 1 >= frames then Ok ()
                      else begin
                        Unix.sleepf (Float.max 0.05 interval);
                        loop (i + 1)
                      end
                  | _ -> Error ("server refused telemetry: " ^ reply)))
        in
        let result = loop 0 in
        Pc_server.Client.close c;
        result)
  in
  let doc =
    "Live dashboard over a running `pcda serve`: polls the telemetry op \
     and renders windowed qps, latency quantiles, error/degraded/cache \
     rates (1s/10s/60s), totals and admission counts. --prom prints the \
     Prometheus exposition; --once prints a single frame (scriptable)."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      ret
        (const run $ host_arg $ port_arg $ once_arg $ prom_arg $ interval_arg
       $ iterations_arg))

let main_cmd =
  let doc = "missing-data contingency analysis with predicate-constraints" in
  let info = Cmd.info "pcda" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      bound_cmd;
      check_cmd;
      show_cmd;
      explain_cmd;
      generate_cmd;
      workload_cmd;
      serve_cmd;
      client_cmd;
      ingest_cmd;
      top_cmd;
    ]

let () =
  (* a client vanishing mid-write must never kill the process (or any
     pipeline `pcda` is part of) with SIGPIPE *)
  Pc_server.Net.ignore_sigpipe ();
  let code = Cmd.eval main_cmd in
  (* cmdliner reports its own usage errors (unknown flag, missing
     required arg) with 124; fold them into the documented user-error
     exit code *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
