module Counter = Pc_obs.Registry.Counter
module I = Pc_interval.Interval
module Atom = Pc_predicate.Atom
module Pred = Pc_predicate.Pred
module Schema = Pc_data.Schema
module Q = Pc_query.Query

(* Global counters (the --metrics face): one cache per dataset, one
   counter set per process — hit/eviction rates are server-level
   signals. *)
let c_hits = Counter.make "cache.hits"
let c_misses = Counter.make "cache.misses"
let c_evictions = Counter.make "cache.evictions"
let c_invalidations = Counter.make "cache.invalidations"
let c_stale_stores = Counter.make "cache.stale_stores"
let c_row_tests = Counter.make "cache.invalidate_row_tests"

type meta = { pcs : int list; where_ : Pred.t; missing_only : bool }

(* An entry's selection compiled against a batch schema. [ranges] is
   [None] when some atom cannot be evaluated there (attribute absent or
   of the wrong kind), otherwise the column and interval of every
   numeric atom that can rule a row out (a full-line atom admits every
   value, NaN included, so it is left out). [test] is the row test,
   {!Pred.compile}'s. *)
type compiled = {
  ranges : (int * I.t) array option;
  test : Pc_data.Relation.tuple -> bool;
}

type entry = {
  value : string;
  bytes : int;  (* key + value, the footprint both caps account *)
  stamp : int;
  meta : meta option;
  mutable compiled : (Schema.t * compiled) option;
      (* memo of [compile] for the last batch schema swept, written
         under the lock *)
}

type t = {
  capacity : int;
  capacity_bytes : int;
  tbl : (string, entry) Hashtbl.t;
  order : (string * int) Queue.t;
      (* insertion order with stamps: an entry removed by [invalidate]
         and later re-stored leaves a stale (key, old_stamp) pair behind,
         which eviction recognizes and skips *)
  mutable total_bytes : int;
  mutable next_stamp : int;
  mutable version : int;
      (* high-water stream version, advanced by [invalidate] under the
         lock. [store] carries the version its reply's snapshot was
         pinned at and is fenced against this: a reply computed against
         a superseded snapshot must not be stored after the
         invalidation for the superseding batch already swept — it
         would be served byte-identical at the new version. *)
  mu : Mutex.t;
}

let create ?(capacity = 1024) ?(capacity_bytes = 64 * 1024 * 1024) () =
  {
    capacity = max 1 capacity;
    capacity_bytes = max 1 capacity_bytes;
    tbl = Hashtbl.create 64;
    order = Queue.create ();
    total_bytes = 0;
    next_stamp = 0;
    version = 0;
    mu = Mutex.create ();
  }

let find t key =
  Mutex.lock t.mu;
  let r = Hashtbl.find_opt t.tbl key in
  Mutex.unlock t.mu;
  match r with
  | Some e ->
      Counter.incr c_hits;
      Some e.value
  | None ->
      Counter.incr c_misses;
      None

(* Drop the oldest live entries while either cap is exceeded. Must be
   called with the lock held. *)
let evict_over_caps t =
  while
    Hashtbl.length t.tbl > t.capacity || t.total_bytes > t.capacity_bytes
  do
    match Queue.take_opt t.order with
    | None ->
        (* caps exceeded with an empty queue cannot happen: every live
           entry has a queue pair; bail rather than spin *)
        t.total_bytes <- 0;
        Hashtbl.reset t.tbl
    | Some (key, stamp) -> (
        match Hashtbl.find_opt t.tbl key with
        | Some e when e.stamp = stamp ->
            Hashtbl.remove t.tbl key;
            t.total_bytes <- t.total_bytes - e.bytes;
            Counter.incr c_evictions
        | _ -> () (* stale pair from an invalidated entry *))
  done

(* Stale (key, stamp) pairs left behind by [invalidate] are normally
   drained by [evict_over_caps] — but only while a cap is exceeded.
   Under steady store→invalidate churn the table stays small and the
   queue would grow for the life of the server, so whenever it bloats
   past twice the live-entry count we rebuild it from the live pairs.
   Amortized O(1) per queue push; must be called with the lock held. *)
let compact_if_bloated t =
  let qlen = Queue.length t.order in
  if qlen > 64 && qlen > 2 * Hashtbl.length t.tbl then begin
    let live = Queue.create () in
    Queue.iter
      (fun ((key, stamp) as pair) ->
        match Hashtbl.find_opt t.tbl key with
        | Some e when e.stamp = stamp -> Queue.push pair live
        | _ -> ())
      t.order;
    Queue.clear t.order;
    Queue.transfer live t.order
  end

let store t ?meta ?version key value =
  Mutex.lock t.mu;
  let fresh =
    match version with None -> true | Some v -> v >= t.version
  in
  if not fresh then Counter.incr c_stale_stores
  else if not (Hashtbl.mem t.tbl key) then begin
    let bytes = String.length key + String.length value in
    let stamp = t.next_stamp in
    t.next_stamp <- stamp + 1;
    Hashtbl.add t.tbl key { value; bytes; stamp; meta; compiled = None };
    Queue.push (key, stamp) t.order;
    t.total_bytes <- t.total_bytes + bytes;
    evict_over_caps t
  end;
  Mutex.unlock t.mu

let compile schema (where_ : Pred.t) : compiled =
  let test = Pred.compile schema where_ in
  let exception Unevaluable in
  let column a kind =
    match Schema.index_opt schema a with
    | Some i when (Schema.attr schema a).Schema.kind = kind -> i
    | _ -> raise Unevaluable
  in
  match
    List.filter_map
      (function
        | Atom.Num_range (a, iv) ->
            let i = column a Schema.Numeric in
            if I.equal iv I.full then None else Some (i, iv)
        | atom ->
            ignore (column (Atom.attr atom) Schema.Categorical);
            None)
      where_
  with
  | atoms -> { ranges = Some (Array.of_list atoms); test }
  | exception Unevaluable -> { ranges = None; test }

let compiled_against schema e where_ =
  match e.compiled with
  | Some (s, c) when s == schema || Schema.equal s schema -> c
  | _ ->
      let c = compile schema where_ in
      e.compiled <- Some (schema, c);
      c

(* The batch's per-column hulls: each numeric column's [min, max] over
   its non-NaN values ([lo > hi] when it has none). [None] when some
   row does not fit the schema (too short, or a value of the wrong
   kind): an atom could then raise on that row, so no entry may skip
   the row test. *)
type hulls = { lo : float array; hi : float array }

let hulls schema tuples =
  let attrs = Array.of_list (Schema.attrs schema) in
  let n = Array.length attrs in
  let lo = Array.make n Float.infinity and hi = Array.make n Float.neg_infinity in
  let rec fits row i =
    i = n
    ||
    match (attrs.(i).Schema.kind, row.(i)) with
    | Schema.Numeric, Pc_data.Value.Num x ->
        if x < lo.(i) then lo.(i) <- x;
        if x > hi.(i) then hi.(i) <- x;
        fits row (i + 1)
    | Schema.Categorical, Pc_data.Value.Str _ -> fits row (i + 1)
    | _ -> false
  in
  if Array.for_all (fun row -> Array.length row >= n && fits row 0) tuples then
    Some { lo; hi }
  else None

(* No value in [lo, hi] lies in [iv] (a non-full interval, which holds
   no NaN). Two convex sets meet iff the hull's top clears [iv]'s lower
   end and its bottom clears [iv]'s upper end. *)
let misses (iv : I.t) ~lo ~hi =
  lo > hi
  || not
       ((match iv.I.lo with
        | I.Neg_inf -> true
        | I.Pos_inf -> false
        | I.Closed l -> hi >= l
        | I.Open l -> hi > l)
       &&
       match iv.I.hi with
       | I.Pos_inf -> true
       | I.Neg_inf -> false
       | I.Closed u -> lo <= u
       | I.Open u -> lo < u)

(* The exact certain-side test: some batch row satisfies the selection.
   A row the predicate cannot be evaluated on (attribute absent or
   mistyped) counts as selected — conservative eviction is always
   sound. [Array.exists] stops at the first row that passes or raises,
   so one handler around the scan answers as one around each row
   would; a batch with no rows selects nothing. *)
let selects test tuples =
  try Array.exists test tuples with Not_found | Invalid_argument _ -> true

(* Does the ingestion delta reach this entry? Missing side: consumption
   of a reachable PC. Certain side: a batch row inside the entry's
   selection. The hull prefilter answers "no row" without the row test
   when every atom can be evaluated and some numeric atom misses its
   column's hull: every row then fails that atom, and none can raise,
   so [selects] would have answered [false] too. *)
let invalidate t ~version ~touched ~rows =
  let marked = Array.make (1 + List.fold_left max (-1) touched) false in
  List.iter (fun j -> if j >= 0 then marked.(j) <- true) touched;
  let reaches pcs =
    List.exists (fun j -> j >= 0 && j < Array.length marked && marked.(j)) pcs
  in
  let batch =
    Option.map (fun (schema, tuples) -> (schema, tuples, hulls schema tuples)) rows
  in
  let row_tests = ref 0 in
  let affected e =
    match e.meta with
    | None -> true
    | Some m -> (
        reaches m.pcs
        || (not m.missing_only)
           &&
           match batch with
           | None -> false
           | Some (schema, tuples, hulls) ->
               let c = compiled_against schema e m.where_ in
               let skip =
                 match (hulls, c.ranges) with
                 | Some h, Some atoms ->
                     Array.exists
                       (fun (i, iv) -> misses iv ~lo:h.lo.(i) ~hi:h.hi.(i))
                       atoms
                 | _ -> false
               in
               (not skip)
               && begin
                    incr row_tests;
                    selects c.test tuples
                  end)
  in
  Mutex.lock t.mu;
  if version > t.version then t.version <- version;
  let victims =
    Hashtbl.fold
      (fun key e acc -> if affected e then (key, e.bytes) :: acc else acc)
      t.tbl []
  in
  List.iter
    (fun (key, bytes) ->
      Hashtbl.remove t.tbl key;
      t.total_bytes <- t.total_bytes - bytes;
      Counter.incr c_invalidations)
    victims;
  compact_if_bloated t;
  Mutex.unlock t.mu;
  Counter.add c_row_tests !row_tests;
  if Pc_obs.Trace.enabled () then
    Pc_obs.Trace.add_attr "row_tests" (string_of_int !row_tests);
  List.length victims

let size t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mu;
  n

let bytes t =
  Mutex.lock t.mu;
  let n = t.total_bytes in
  Mutex.unlock t.mu;
  n

let queue_length t =
  Mutex.lock t.mu;
  let n = Queue.length t.order in
  Mutex.unlock t.mu;
  n

(* The dataset digest covers everything a reply depends on besides the
   query: each PC's canonical predicate, value constraints, and
   frequency range, plus the raw certain-partition text. Intervals
   print with [Interval.key], exactly, so near-equal datasets never
   collide. *)
let digest_set set ~csv =
  let pc_line (pc : Pc_core.Pc.t) =
    Printf.sprintf "%s|%s|%d,%d"
      (Pred.canonical_key pc.Pc_core.Pc.pred)
      (String.concat ","
         (List.map
            (fun (a, iv) -> Printf.sprintf "%S%s" a (Pc_interval.Interval.key iv))
            (List.sort compare pc.Pc_core.Pc.values)))
      pc.Pc_core.Pc.freq_lo pc.Pc_core.Pc.freq_hi
  in
  let body =
    String.concat "\n" (List.map pc_line (Pc_core.Pc_set.pcs set))
    ^ "\n--\n"
    ^ Option.value csv ~default:""
  in
  Digest.to_hex (Digest.string body)

let key ~digest ~(query : Q.t) ~missing_only ~timeout_ms =
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  add digest;
  let agg name a =
    add name;
    Buffer.add_char buf '(';
    Pred.add_quoted buf a;
    Buffer.add_char buf ')'
  in
  add "|";
  (match query.Q.agg with
  | Q.Count -> add "count"
  | Q.Sum a -> agg "sum" a
  | Q.Avg a -> agg "avg" a
  | Q.Min a -> agg "min" a
  | Q.Max a -> agg "max" a);
  add "|";
  Pred.add_canonical_key buf query.Q.where_;
  add (if missing_only then "|m=true|t=" else "|m=false|t=");
  (match timeout_ms with
  | None -> add "-"
  | Some ms -> Pc_util.Float_text.add_hex buf ms);
  Buffer.contents buf
