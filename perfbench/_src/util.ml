(* Shared helpers: sample statistics, the result line, process memory. *)

let now_ns () = Pc_util.Clock.now_ns ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* A growable float buffer: latencies of a timed phase. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

(* Linear-interpolated percentile of an already sorted array, the same
   rule as [Pc_util.Stat.percentile]. *)
let pct_sorted ys p =
  let n = Array.length ys in
  if n = 0 then nan
  else if n = 1 then ys.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = min (n - 2) (int_of_float rank) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(lo + 1) -. ys.(lo)))
  end

let sorted xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let median xs = pct_sorted (sorted xs) 50.

(* Peak resident set of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> fail "no VmHWM in %s" path
      in
      scan ())

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Answer checking against the oracle                                  *)
(* ------------------------------------------------------------------ *)

(* Does a reported range contain the true value? The slack covers only
   float summation order; anything wider is a soundness failure. *)
let contains ~lo ~hi truth =
  let eps = 1e-9 *. Float.max 1. (Float.abs truth) in
  lo -. eps <= truth && truth <= hi +. eps

(* Quality over a fixed, seed-determined prefix of the operation
   sequence: the paper's over-estimation (hi / truth over COUNT/SUM
   answers with positive truth), the exact share, and a digest of the
   (query, answer, provenance) sequence. *)
module Quality = struct
  type t = {
    mutable ratios : float list;
    mutable answers : int;
    mutable exact : int;
    digest : Buffer.t;
  }

  let create () = { ratios = []; answers = 0; exact = 0; digest = Buffer.create 4096 }

  let record t ~query ~count_or_sum ~truth ~answer ~hi ~provenance =
    t.answers <- t.answers + 1;
    if provenance = "exact" then t.exact <- t.exact + 1;
    if count_or_sum && truth > 0. then t.ratios <- (hi /. truth) :: t.ratios;
    Buffer.add_string t.digest query;
    Buffer.add_char t.digest '\t';
    Buffer.add_string t.digest answer;
    Buffer.add_char t.digest '\t';
    Buffer.add_string t.digest provenance;
    Buffer.add_char t.digest '\n'

  let overestimate_p50 t = median (Array.of_list t.ratios)
  let exact_fraction t = ratio t.exact t.answers
  let digest t = Digest.to_hex (Digest.string (Buffer.contents t.digest))
end

(* ------------------------------------------------------------------ *)
(* The result line                                                     *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (num mt.value)
          mt.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

(* Human-readable lines go to stdout before the result line; they carry
   the sample counts and the figures that are printed but not gated:
   p99, and p50, which on a shared host falls between two latency modes
   of the same request (about 20 and 29 us for a cached one) and so
   moves by a third between runs of the same code, where the rate and
   p90 move smoothly. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")
