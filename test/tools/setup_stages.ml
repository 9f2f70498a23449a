(* Stage costs of perfbench's paper_batch set-up.

   Rebuilds what one paper_batch build draws, with its seeds and sizes:
   synthetic sensor rows, the top half by light missing, a
   Corr-PC partition with its COUNT and SUM(light) queries, then the
   Rand-PC sets, each with its own few queries. Each call is charged to
   one stage:
     generate     Sensor.generate
     top_values   Missing.top_values
     corr_pcs     Generate.corr_partition
     corr_truths  Query.eval of the Corr-PC queries
     rand_pcs     Generate.rand_pcs, once per Rand-PC set
     querygen     Querygen.random_queries, every call
     rand_truths  Query.eval of the Rand-PC queries
     pc_sets      Pc_set.make and Runner.of_pc_set
   and printed with its milliseconds and minor words per build: the
   median of [--rounds] builds (3).

   Off the tier-1 path:
     dune exec test/tools/setup_stages.exe -- [--small] [--rounds N] [--seed S]
   [--small] uses paper_batch's self-test size instead of the full one. *)

module Q = Pc_query.Query

type size = {
  rows : int;
  corr : int;
  corr_per_agg : int;
  rand : int;
  rand_sets : int;
  rand_per_agg : int;
}

let full =
  { rows = 20_000; corr = 400; corr_per_agg = 180; rand = 40; rand_sets = 32; rand_per_agg = 2 }

let small =
  { rows = 4_000; corr = 100; corr_per_agg = 10; rand = 12; rand_sets = 2; rand_per_agg = 3 }

let stages =
  [| "generate"; "top_values"; "corr_pcs"; "corr_truths"; "rand_pcs"; "querygen";
     "rand_truths"; "pc_sets" |]

let stage name =
  let rec find i = if stages.(i) = name then i else find (i + 1) in
  find 0

(* One build; per stage, its nanoseconds and minor words. *)
let build ~seed size =
  let ns = Array.make (Array.length stages) 0. and words = Array.make (Array.length stages) 0. in
  let timed name f =
    let k = stage name in
    let w0 = Gc.minor_words () and t0 = Pc_util.Clock.now_ns () in
    let r = f () in
    ns.(k) <- ns.(k) +. Int64.to_float (Int64.sub (Pc_util.Clock.now_ns ()) t0);
    words.(k) <- words.(k) +. (Gc.minor_words () -. w0);
    r
  in
  let attrs = [ "device"; "time" ] in
  let rng = Pc_util.Rng.create seed in
  let rel = timed "generate" (fun () -> Pc_synth.Sensor.generate rng ~rows:size.rows) in
  let missing =
    timed "top_values" (fun () ->
        (Pc_synth.Missing.top_values rel ~attr:"light" ~fraction:0.5).Pc_synth.Missing.missing)
  in
  let corr_pcs =
    timed "corr_pcs" (fun () ->
        Pc_core.Generate.corr_partition missing ~attrs ~n:size.corr ())
  in
  let pc_set label pcs =
    timed "pc_sets" (fun () ->
        Pc_workload.Runner.of_pc_set label (Pc_core.Pc_set.make pcs))
  in
  let corr = pc_set "Corr-PC" corr_pcs in
  let qrng = Pc_util.Rng.create (seed + 1) in
  let queries n =
    timed "querygen" (fun () ->
        List.concat_map
          (fun agg -> Pc_workload.Querygen.random_queries qrng missing ~attrs ~agg ~n)
          [ Pc_workload.Querygen.Count; Pc_workload.Querygen.Sum "light" ])
  in
  let truths name qs = timed name (fun () -> List.map (fun q -> Q.eval missing q) qs) in
  let asks = ref [ (corr, truths "corr_truths" (queries size.corr_per_agg)) ] in
  let prng = Pc_util.Rng.create (seed + 2) in
  for _ = 1 to size.rand_sets do
    let pcs =
      timed "rand_pcs" (fun () ->
          Pc_core.Generate.rand_pcs prng missing ~attrs ~n:size.rand ())
    in
    let set = pc_set "Rand-PC" pcs in
    asks := (set, truths "rand_truths" (queries size.rand_per_agg)) :: !asks
  done;
  ignore (Sys.opaque_identity !asks);
  (ns, words)

let median xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys.(Array.length ys / 2)

let () =
  let rounds = ref 3 and seed = ref 1 and size = ref full in
  Arg.parse
    [
      ("--rounds", Arg.Set_int rounds, "N builds; each stage reports its median (3)");
      ("--seed", Arg.Set_int seed, "S data seed, as paper_batch's --seed (1)");
      ("--small", Arg.Unit (fun () -> size := small), " paper_batch's self-test size");
    ]
    (fun a -> raise (Arg.Bad a))
    "setup_stages [--small] [--rounds N] [--seed S]";
  if !rounds < 1 then raise (Arg.Bad "--rounds must be at least 1");
  let runs =
    Array.init !rounds (fun _ ->
        Gc.full_major ();
        build ~seed:!seed !size)
  in
  Printf.printf "rows %d, rounds %d, seed %d\n" !size.rows !rounds !seed;
  Printf.printf "%-12s %10s %14s\n" "stage" "ms" "minor words";
  let total_ms = ref 0. and total_words = ref 0. in
  Array.iteri
    (fun k name ->
      let ms = median (Array.map (fun (ns, _) -> ns.(k) /. 1e6) runs) in
      let words = median (Array.map (fun (_, w) -> w.(k)) runs) in
      total_ms := !total_ms +. ms;
      total_words := !total_words +. words;
      Printf.printf "%-12s %10.1f %14.0f\n" name ms words)
    stages;
  Printf.printf "%-12s %10.1f %14.0f\n" "total" !total_ms !total_words
