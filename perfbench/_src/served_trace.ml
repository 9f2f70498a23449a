(* The traced run of a served workload:
   1. an untraced server phase, the reference for the tracing overhead;
   2. a server started with --trace and --metrics: its request
      histogram and registry counters;
   3. the same script replayed in-process under bench spans. *)

module D = Dataset
module J = Pc_obs.Json
module S = Server_proc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let json_path v path =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some v) path

(* p50 (us) and count of the server's request-latency histogram, over
   the server's whole life. *)
let handle_p50 metrics_file =
  match J.parse (read_file metrics_file) with
  | Error e -> Util.fail "bad metrics dump: %s" e
  | Ok v ->
      let h k =
        Option.value
          (Option.bind (json_path v [ "histograms"; "server.request_ns"; k ]) J.to_num)
          ~default:0.
      in
      (h "p50_ns" /. 1e3, int_of_float (h "count"))

(* Span counts and totals of the server's Chrome trace, by name. *)
let print_server_spans trace_file =
  match J.parse (read_file trace_file) with
  | Ok (J.Arr events) ->
      let by = Hashtbl.create 16 in
      List.iter
        (fun e ->
          match (J.member "name" e, Option.bind (J.member "dur" e) J.to_num) with
          | Some (J.Str n), Some dur ->
              let c, t = Option.value (Hashtbl.find_opt by n) ~default:(0, 0.) in
              Hashtbl.replace by n (c + 1, t +. dur)
          | _ -> ())
        events;
      List.iter
        (fun (n, (c, t)) ->
          Util.say "server span %-16s count %7d  total %10.3f ms" n c (t /. 1e3))
        (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by []))
  | Ok _ | Error _ -> Util.fail "bad server trace %s" trace_file

let replay_steps ~ingest = if ingest then 1_000 else 20_000

let run ~pcda ~workdir ~seed ~seconds ~ingest =
  let ds = D.make ~seed in
  let half = seconds /. 2. in
  let d0, q0, _ = Served.setup ~pcda ~workdir ~args:[] ds ~ingest in
  let plain = Served.timed d0 ds ~ingest ~seconds:half ~quality:q0 in
  S.shutdown d0.Served.srv;
  let trace_file = Filename.concat workdir "server-trace.json"
  and metrics_file = Filename.concat workdir "server-metrics.json" in
  let d, q, _ =
    Served.setup ~pcda ~workdir
      ~args:[ "--trace"; trace_file; "--metrics"; metrics_file ]
      ds ~ingest
  in
  let before = S.counters d.Served.srv in
  let ph = Served.timed d ds ~ingest ~seconds:half ~quality:q in
  let after = S.counters d.Served.srv in
  S.shutdown d.Served.srv;
  let handle_p50_us, handle_samples = handle_p50 metrics_file in
  (* the histogram's sum and count are live counters: their deltas give
     the exact mean over the timed phase alone *)
  let dl = S.delta before after in
  let handle_mean_us =
    Util.ratio (dl "server.request_ns_sum") (dl "server.request_ns_count") /. 1e3
  in
  Util.say "server histogram over the traced phase: %d requests, mean %.3f us \
            (client sent %d)"
    (dl "server.request_ns_count") handle_mean_us
    (Array.length ph.Served.bound_ns + Array.length ph.Served.ingest_ns);
  print_server_spans trace_file;
  Pc_obs.Trace.set_enabled true;
  Pc_obs.Trace.reset ();
  let replayed, replay_failed = Replay.run ds ~ingest ~steps:(replay_steps ~ingest) in
  Pc_obs.Trace.set_enabled false;
  let layers = Layers.create () in
  Layers.collect layers;
  Layers.print layers;
  let p50_ms ys = Util.pct_sorted ys 50. /. 1e6 in
  let b50 ph = p50_ms ph.Served.bound_ns in
  let client_p50_ms = b50 ph in
  Util.say "traced: client p50 %.4f ms over %d samples (untraced %.4f ms over %d); \
            server handle p50 %.3f us over %d; replayed %d bound requests"
    client_p50_ms (Array.length ph.Served.bound_ns) (b50 plain)
    (Array.length plain.Served.bound_ns) handle_p50_us handle_samples replayed;
  let failed = d0.Served.failed + d.Served.failed + replay_failed in
  let attempted = d0.Served.attempted + d.Served.attempted + replayed in
  let metrics =
    Layers.per_layer layers
      {
        Layers.overhead_ms = client_p50_ms -. b50 plain;
        handle_p50_us;
        handle_samples;
        handle_mean_us;
        client_ns = Util.sorted (Array.append ph.Served.bound_ns ph.Served.ingest_ns);
        ingest_p50_ms = (if ingest then p50_ms ph.Served.ingest_ns else 0.);
        ingest_samples = Array.length ph.Served.ingest_ns;
        queries = Array.length ph.Served.bound_ns;
        counter = S.delta before after;
      }
  in
  (failed = 0, attempted, failed, metrics)
