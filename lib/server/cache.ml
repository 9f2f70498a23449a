module Counter = Pc_obs.Registry.Counter
module Pred = Pc_predicate.Pred
module Q = Pc_query.Query

(* Global counters (the --metrics face): one cache per dataset, one
   counter set per process — hit/eviction rates are server-level
   signals. *)
let c_hits = Counter.make "cache.hits"
let c_misses = Counter.make "cache.misses"
let c_evictions = Counter.make "cache.evictions"
let c_invalidations = Counter.make "cache.invalidations"
let c_stale_stores = Counter.make "cache.stale_stores"

type meta = { pcs : int list; where_ : Pred.t; missing_only : bool }

type entry = {
  value : string;
  bytes : int;  (* key + value, the footprint both caps account *)
  stamp : int;
  meta : meta option;
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
    Hashtbl.add t.tbl key { value; bytes; stamp; meta };
    Queue.push (key, stamp) t.order;
    t.total_bytes <- t.total_bytes + bytes;
    evict_over_caps t
  end;
  Mutex.unlock t.mu

(* Does the ingestion delta reach this entry? Missing side: consumption
   of a reachable PC. Certain side: a batch row inside the entry's
   selection. A predicate that cannot be evaluated against the batch
   schema (attribute absent or mistyped) is treated as affected —
   conservative eviction is always sound. *)
let affected ~touched ~rows = function
  | None -> true
  | Some m ->
      List.exists (fun j -> List.mem j m.pcs) touched
      || (not m.missing_only)
         && (match rows with
            | None -> false
            | Some (schema, tuples) ->
                Array.exists
                  (fun row ->
                    try Pred.eval schema m.where_ row with
                    | Not_found | Invalid_argument _ -> true)
                  tuples)

let invalidate t ~version ~touched ~rows =
  Mutex.lock t.mu;
  if version > t.version then t.version <- version;
  let victims =
    Hashtbl.fold
      (fun key e acc ->
        if affected ~touched ~rows e.meta then (key, e.bytes) :: acc else acc)
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
  let agg =
    match query.Q.agg with
    | Q.Count -> "count"
    | Q.Sum a -> Printf.sprintf "sum(%S)" a
    | Q.Avg a -> Printf.sprintf "avg(%S)" a
    | Q.Min a -> Printf.sprintf "min(%S)" a
    | Q.Max a -> Printf.sprintf "max(%S)" a
  in
  Printf.sprintf "%s|%s|%s|m=%b|t=%s" digest agg
    (Pred.canonical_key query.Q.where_)
    missing_only
    (match timeout_ms with None -> "-" | Some ms -> Printf.sprintf "%h" ms)
