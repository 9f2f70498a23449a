(* The served dataset and the two served operation scripts, all drawn
   from the seed. The bench keeps the hidden rows, so every answer the
   server gives can be checked against the true aggregate.

   Every value is an integer: the constraint text is printed with
   [Pc_parser.to_dsl], whose [%g] floats would otherwise narrow the
   constraints on the way into the server (and the oracle would then
   flag a soundness failure that has nothing to do with the change
   under test). [make] checks the round trip and refuses to run when it
   is not exact. *)

module R = Pc_data.Relation
module V = Pc_data.Value
module Q = Pc_query.Query
module Rng = Pc_util.Rng

let schema =
  Pc_data.Schema.of_names
    [
      ("device", Pc_data.Schema.Numeric);
      ("time", Pc_data.Schema.Numeric);
      ("light", Pc_data.Schema.Numeric);
    ]

(* A closed integer box over (device, time). *)
type box = { d0 : int; d1 : int; t0 : int; t1 : int }

let overlaps a b = a.d0 <= b.d1 && b.d0 <= a.d1 && a.t0 <= b.t1 && b.t0 <= a.t1

type query = {
  text : string;  (** the request's query string *)
  line : string;  (** the whole [bound] request line *)
  count_or_sum : bool;
  truth : float;  (** true aggregate over every hidden row *)
}

type t = {
  dsl : string;  (** the constraint set, as [pcda serve] loads it *)
  n_pcs : int;
  hidden : R.t;  (** the missing partition *)
  sweep : query array;
      (** distinct COUNT/SUM queries asked once during set-up, of a
          second copy of the dataset (["sweep"]) so that their cache
          entries stay out of the timed phase: enough answers for a
          steady median over-estimation *)
  hot : query array;  (** [serve_hot]'s cycle *)
  ingest : query array;  (** [serve_ingest]'s cycle *)
  chunks : string array;
      (** [append] request lines whose CSV rows are disjoint slices of
          one PC's hidden rows *)
}

(* Grid: 9 device ranges of 6 devices x 6 time ranges of 56 hours. *)
let device_w = 6
let device_n = 9
let time_w = 56
let time_n = 6

(* Ingest shape: [live] batches stay appended, [chunks = live + 1] so
   the chunk an append reuses is the one the previous step retracted. *)
let live = 3
let rows_per_batch = 8
let bounds_per_half_step = 3

let hot_per_agg = 20
let sweep_per_agg = 300

(* [serve_ingest]: queries near the ingested PC miss on every ask, the
   far ones always hit. A quarter near, most of them COUNT/SUM, puts
   p50 among the hits and p90 in the middle of the incremental misses
   (75% to 95% of the bound answers): the cache store, FDD routing and
   warm engines that ingest loads. The few AVG/MIN/MAX misses take the
   full ladder and weigh on the rate and p99. *)
let near_aggs = [ ("count", 15); ("sum", 14); ("avg", 3); ("min", 2); ("max", 2) ]
let far_aggs = [ ("count", 22); ("sum", 22); ("avg", 22); ("min", 21); ("max", 21) ]

let integer_rows rng ~rows =
  let full = Pc_synth.Sensor.generate rng ~rows in
  let num r a = R.number full r a in
  R.of_array schema
    (Array.init rows (fun r ->
         [|
           V.Num (num r "device");
           V.Num (Float.of_int (int_of_float (num r "time")));
           V.Num (Float.round (num r "light"));
         |]))

let in_box schema b row =
  let get a = int_of_float (V.as_num row.(Pc_data.Schema.index schema a)) in
  let d = get "device" and t = get "time" in
  b.d0 <= d && d <= b.d1 && b.t0 <= t && t <= b.t1

let grid_pcs hidden =
  let boxes =
    List.concat
      (List.init device_n (fun i ->
           List.init time_n (fun j ->
               {
                 d0 = i * device_w;
                 d1 = ((i + 1) * device_w) - 1;
                 t0 = j * time_w;
                 t1 = ((j + 1) * time_w) - 1;
               })))
  in
  List.filter_map
    (fun b ->
      let rows = R.filter (in_box schema b) hidden in
      match R.min_max rows "light" with
      | None -> None
      | Some (lo, hi) ->
          let pc =
            Pc_core.Pc.make
              ~name:(Printf.sprintf "d%d_t%d" (b.d0 / device_w) (b.t0 / time_w))
              ~pred:
                [
                  Pc_predicate.Atom.between "device" (float_of_int b.d0)
                    (float_of_int b.d1);
                  Pc_predicate.Atom.between "time" (float_of_int b.t0)
                    (float_of_int b.t1);
                ]
              ~values:[ ("light", Pc_interval.Interval.closed lo hi) ]
              ~freq:(0, R.cardinality rows) ()
          in
          Some (b, pc, rows))
    boxes

(* Print every PC and parse the text back: the served set must be the
   generated one, constraint for constraint. *)
let dsl_of pcs =
  let text = String.concat "\n" (List.map Pc_parse.Pc_parser.to_dsl pcs) ^ "\n" in
  let back = Pc_parse.Pc_parser.parse text in
  if List.length back <> List.length pcs || not (List.for_all2 ( = ) back pcs)
  then Util.fail "constraint text does not round-trip through to_dsl/parse";
  text

let agg_sql = function
  | "count" -> "COUNT(*)"
  | "sum" -> "SUM(light)"
  | "avg" -> "AVG(light)"
  | "min" -> "MIN(light)"
  | _ -> "MAX(light)"

let window rng =
  let wd = 3 + Rng.int rng 16 and wt = 30 + Rng.int rng 121 in
  let d0 = Rng.int rng ((device_n * device_w) - wd + 1)
  and t0 = Rng.int rng ((time_n * time_w) - wt + 1) in
  { d0; d1 = d0 + wd - 1; t0; t1 = t0 + wt - 1 }

(* A random query of aggregate [agg] whose window satisfies [keep] and
   selects at least one hidden row (so every truth is defined). *)
let rec draw ?(dataset = "default") rng hidden agg ~keep =
  let b = window rng in
  let text =
    Printf.sprintf
      "SELECT %s WHERE device BETWEEN %d AND %d AND time BETWEEN %d AND %d"
      (agg_sql agg) b.d0 b.d1 b.t0 b.t1
  in
  let q = Pc_parse.Query_parser.parse text in
  match Q.eval hidden q with
  | Some truth when keep b && R.cardinality (Q.selection hidden q) > 0 ->
      let line =
        Pc_obs.Json.(
          to_string
            (Obj [ ("op", Str "bound"); ("dataset", Str dataset); ("query", Str text) ]))
      in
      { text; line; count_or_sum = agg = "count" || agg = "sum"; truth }
  | _ -> draw ~dataset rng hidden agg ~keep

let draw_mix ?dataset rng hidden mix ~keep =
  List.concat_map
    (fun (agg, n) -> List.init n (fun _ -> draw ?dataset rng hidden agg ~keep))
    mix

let make ~seed =
  let rng = Rng.create seed in
  let hidden =
    (Pc_synth.Missing.top_values (integer_rows rng ~rows:6_000) ~attr:"light"
       ~fraction:0.5)
      .Pc_synth.Missing.missing
  in
  let grid = grid_pcs hidden in
  let pcs = List.map (fun (_, pc, _) -> pc) grid in
  let dsl = dsl_of pcs in
  let n_chunks = live + 1 in
  let candidates =
    Array.of_list
      (List.filter
         (fun (_, _, rows) -> R.cardinality rows >= n_chunks * rows_per_batch)
         grid)
  in
  if Array.length candidates = 0 then Util.fail "no PC holds enough hidden rows";
  let ingest_box, _, ingest_rows = Rng.choose rng candidates in
  let rows = Array.copy (R.tuples ingest_rows) in
  Rng.shuffle rng rows;
  let chunks =
    Array.init n_chunks (fun k ->
        let b = Buffer.create 256 in
        Buffer.add_string b "device,time,light\n";
        for r = k * rows_per_batch to ((k + 1) * rows_per_batch) - 1 do
          let v i = int_of_float (V.as_num rows.(r).(i)) in
          Buffer.add_string b (Printf.sprintf "%d,%d,%d\n" (v 0) (v 1) (v 2))
        done;
        Pc_obs.Json.(
          to_string (Obj [ ("op", Str "append"); ("csv", Str (Buffer.contents b)) ])))
  in
  let sweep =
    Array.of_list
      (draw_mix ~dataset:"sweep" rng hidden
         [ ("count", sweep_per_agg); ("sum", sweep_per_agg) ]
         ~keep:(fun _ -> true))
  in
  let hot =
    Array.of_list
      (draw_mix rng hidden
         (List.map (fun a -> (a, hot_per_agg)) [ "count"; "sum"; "avg"; "min"; "max" ])
         ~keep:(fun _ -> true))
  in
  Rng.shuffle rng hot;
  let ingest =
    Array.of_list
      (draw_mix rng hidden near_aggs ~keep:(overlaps ingest_box)
      @ draw_mix rng hidden far_aggs ~keep:(fun b -> not (overlaps ingest_box b)))
  in
  Rng.shuffle rng ingest;
  { dsl; n_pcs = List.length pcs; hidden; sweep; hot; ingest; chunks }

(* ------------------------------------------------------------------ *)
(* Operation scripts                                                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Bound of query
  | Append of int  (** chunk index *)
  | Retract  (** the oldest live batch *)

let bounds qs = Array.to_list (Array.map (fun q -> Bound q) qs)
let sweep_ops ds = bounds ds.sweep

(* The script's ops that precede timing. *)
let warmup_ops ds ~ingest =
  if ingest then List.init live (fun k -> Append k) @ bounds ds.ingest else bounds ds.hot

(* Timed step [i]: one op (hot) or one append/retract pair with bound
   queries after each half (ingest). *)
let step_ops ds ~ingest i =
  if ingest then begin
    let q k = Bound ds.ingest.(((2 * bounds_per_half_step * i) + k) mod Array.length ds.ingest) in
    (Append ((live + i) mod (live + 1)) :: List.init bounds_per_half_step q)
    @ (Retract :: List.init bounds_per_half_step (fun k -> q (bounds_per_half_step + k)))
  end
  else [ Bound ds.hot.(i mod Array.length ds.hot) ]

(* Timed steps whose replies join the quality prefix and the digest. *)
let prefix_steps ~ingest = if ingest then 24 else 0
