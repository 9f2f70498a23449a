let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type counter = { c_name : string; value : int Atomic.t }

type histogram = {
  h_name : string;
  buckets : int Atomic.t array;  (* bucket i: values in [2^i, 2^(i+1)) ns *)
  h_count : int Atomic.t;
  h_sum_ns : int Atomic.t;
  h_min_ns : int Atomic.t;  (* exact extremes: not bucket-quantized *)
  h_max_ns : int Atomic.t;
}

type instrument = C of counter | H of histogram

(* Registration is rare (module load time) and mutex-protected; reads of
   individual instruments are plain atomics. *)
let reg_mutex = Mutex.create ()
let tbl : (string, instrument) Hashtbl.t = Hashtbl.create 64

let register name mk unwrap =
  Mutex.lock reg_mutex;
  let r =
    match Hashtbl.find_opt tbl name with
    | Some i -> unwrap i
    | None ->
        let i = mk () in
        Hashtbl.replace tbl name i;
        unwrap i
  in
  Mutex.unlock reg_mutex;
  r

module Counter = struct
  type t = counter

  let make name =
    register name
      (fun () -> C { c_name = name; value = Atomic.make 0 })
      (function
        | C c -> c
        | H _ -> invalid_arg ("Registry: " ^ name ^ " is a histogram"))

  let incr t = Atomic.incr t.value
  let add t n = if n <> 0 then ignore (Atomic.fetch_and_add t.value n)
  let get t = Atomic.get t.value
  let clear t = Atomic.set t.value 0
  let name t = t.c_name
end

module Histogram = struct
  type t = histogram

  let n_buckets = 64

  let make name =
    register name
      (fun () ->
        H
          {
            h_name = name;
            buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum_ns = Atomic.make 0;
            h_min_ns = Atomic.make max_int;
            h_max_ns = Atomic.make 0;
          })
      (function
        | H h -> h
        | C _ -> invalid_arg ("Registry: " ^ name ^ " is a counter"))

  let bucket_of_ns v =
    if not (v > 1.) then 0
    else min (n_buckets - 1) (int_of_float (Float.log2 v))

  (* monotone CAS fold: lock-free exact extremes *)
  let rec atomic_min a v =
    let cur = Atomic.get a in
    if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

  let rec atomic_max a v =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

  let observe_ns t ns =
    if Atomic.get enabled_flag then begin
      Atomic.incr t.h_count;
      let ns_int = int_of_float (Float.max 0. (Float.min ns 4.6e18)) in
      ignore (Atomic.fetch_and_add t.h_sum_ns ns_int);
      atomic_min t.h_min_ns ns_int;
      atomic_max t.h_max_ns ns_int;
      Atomic.incr t.buckets.(bucket_of_ns ns)
    end

  let count t = Atomic.get t.h_count
  let sum_ns t = Atomic.get t.h_sum_ns
  let min_ns t = if count t = 0 then 0 else Atomic.get t.h_min_ns
  let max_ns t = Atomic.get t.h_max_ns

  let mean_ns t =
    let n = count t in
    if n = 0 then 0. else float_of_int (sum_ns t) /. float_of_int n

  (* Representative value inside bucket i: 1.5 * 2^i, which maps back to
     bucket i under [bucket_of_ns] — readouts stay within one bucket of
     the exact sample percentile. *)
  let percentile_of_counts counts p =
    let n = Array.fold_left ( + ) 0 counts in
    if n = 0 then 0.
    else begin
      let p = Float.max 0. (Float.min 100. p) in
      let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
      let len = Array.length counts in
      let rec find i cum =
        if i >= len then Float.ldexp 1.5 (len - 1)
        else begin
          let cum = cum + counts.(i) in
          if cum >= rank then Float.ldexp 1.5 i else find (i + 1) cum
        end
      in
      find 0 0
    end

  let percentile_ns t p =
    percentile_of_counts (Array.map Atomic.get t.buckets) p

  let clear t =
    Array.iter (fun b -> Atomic.set b 0) t.buckets;
    Atomic.set t.h_count 0;
    Atomic.set t.h_sum_ns 0;
    Atomic.set t.h_min_ns max_int;
    Atomic.set t.h_max_ns 0

  let name t = t.h_name
end

let instruments () =
  Mutex.lock reg_mutex;
  let all = Hashtbl.fold (fun name i acc -> (name, i) :: acc) tbl [] in
  Mutex.unlock reg_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let counters () =
  List.filter_map
    (function name, C c -> Some (name, Counter.get c) | _, H _ -> None)
    (instruments ())

let histograms () =
  List.filter_map (function _, H h -> Some h | _, C _ -> None) (instruments ())

let dump_text () =
  let b = Buffer.create 512 in
  Buffer.add_string b "metrics:\n";
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %s %d\n" name v))
    (counters ());
  Buffer.add_string b "histograms:\n";
  List.iter
    (fun h ->
      let p q = Histogram.percentile_ns h q /. 1e3 in
      Buffer.add_string b
        (Printf.sprintf "  %s count=%d p50=%.1fus p90=%.1fus p99=%.1fus\n"
           (Histogram.name h) (Histogram.count h) (p 50.) (p 90.) (p 99.)))
    (histograms ());
  Buffer.contents b

let dump_json () =
  let int n = Json.Num (float_of_int n) in
  let histogram h =
    let p q = Json.Num (Histogram.percentile_ns h q) in
    ( Histogram.name h,
      Json.Obj
        [
          ("count", int (Histogram.count h));
          ("sum_ns", int (Histogram.sum_ns h));
          ("min_ns", int (Histogram.min_ns h));
          ("max_ns", int (Histogram.max_ns h));
          ("mean_ns", Json.Num (Histogram.mean_ns h));
          ("p50_ns", p 50.);
          ("p90_ns", p 90.);
          ("p99_ns", p 99.);
        ] )
  in
  Json.to_string
    (Json.Obj
       [
         ( "counters",
           Json.Obj (List.map (fun (name, v) -> (name, int v)) (counters ())) );
         ("histograms", Json.Obj (List.map histogram (histograms ())));
       ])
  ^ "\n"
