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
let c_refills = Counter.make "cache.refills"

type meta = { pcs : int list; where_ : Pred.t; missing_only : bool }

type refill = { query : Q.t; part : string; key : string; meta : meta }
type front = Hit of string | Refill of refill | Absent

(* An entry's selection compiled for one schema. [evaluable] is false
   when some atom cannot be evaluated there (attribute absent or of the
   wrong kind). Otherwise numeric atom [k] that can rule a row out (a
   full-line atom admits every value, NaN included, so it is left out)
   reads column [cols.(k)], and a batch's non-NaN values in that column
   can meet it only if their hull [lo, hi] has [hi >= top.(k)] and
   [lo <= bottom.(k)] (see [top_of]). [test] is {!Pred.compile}'s row
   test. *)
type sel = {
  test : Pc_data.Relation.tuple -> bool;
  evaluable : bool;
  cols : int array;
  top : float array;
  bottom : float array;
}

let unknown =
  { test = (fun _ -> true); evaluable = false; cols = [||]; top = [||]; bottom = [||] }

(* The flat layout one sweep reads: the PCs as an array, the selection
   compiled for the cache's schema. [parsed] is the query the key was
   built from and its part, when the store gave them: an invalidation
   then empties the entry ([filled] false, [value] "") and keeps the
   rest for a refill. [slot] is the entry's index in [t.live], -1 once
   it is gone. *)
type entry = {
  key : string;
  mutable value : string;
  mutable filled : bool;
  stamp : int;
  mutable meta : meta;
  mutable parsed : (Q.t * string) option;
  mutable pcs : int array;
  mutable sel : sel;
  mutable fronts : string list;  (* front keys that lead here *)
  mutable bytes : int;  (* key + value + front keys: what the byte cap counts *)
  mutable slot : int;
}

let dummy =
  {
    key = "";
    value = "";
    filled = false;
    stamp = -1;
    meta = { pcs = []; where_ = []; missing_only = true };
    parsed = None;
    pcs = [||];
    sel = unknown;
    fronts = [];
    bytes = 0;
    slot = -1;
  }

type t = {
  capacity : int;
  capacity_bytes : int;
  tbl : (string, entry) Hashtbl.t;  (* canonical key -> entry *)
  fronts : (string, entry) Hashtbl.t;  (* front key -> entry *)
  mutable live : entry array;  (* every entry, in slots [0, n) *)
  mutable n : int;
  order : (string * int) Queue.t;
      (* insertion order with stamps: an entry removed by [invalidate]
         and later re-stored leaves a stale (key, old_stamp) pair behind,
         which eviction recognizes and skips. The queue holds keys, not
         entries, so a removed entry's reply dies young. *)
  mutable total_bytes : int;
  mutable next_stamp : int;
  mutable version : int;
      (* high-water stream version, advanced by [invalidate] under the
         lock. [store] carries the version its reply's snapshot was
         pinned at and is fenced against this: a reply computed against
         a superseded snapshot must not be stored after the
         invalidation for the superseding batch already swept — it
         would be served byte-identical at the new version. *)
  mutable schema : Schema.t option;
      (* the schema every entry's [sel] is compiled for: the last batch
         schema swept *)
  mu : Mutex.t;
}

let create ?(capacity = 1024) ?(capacity_bytes = 64 * 1024 * 1024) () =
  {
    capacity = max 1 capacity;
    capacity_bytes = max 1 capacity_bytes;
    tbl = Hashtbl.create 64;
    fronts = Hashtbl.create 64;
    live = Array.make 64 dummy;
    n = 0;
    order = Queue.create ();
    total_bytes = 0;
    next_stamp = 0;
    version = 0;
    schema = None;
    mu = Mutex.create ();
  }

(* The lock is held by every function below down to [invalidate]. *)

let add_live t e =
  if t.n = Array.length t.live then begin
    let live = Array.make (2 * t.n) dummy in
    Array.blit t.live 0 live 0 t.n;
    t.live <- live
  end;
  t.live.(t.n) <- e;
  e.slot <- t.n;
  t.n <- t.n + 1

(* Drop [e] and its front keys; the last slot moves into its place. *)
let remove t e =
  Hashtbl.remove t.tbl e.key;
  List.iter (Hashtbl.remove t.fronts) e.fronts;
  t.total_bytes <- t.total_bytes - e.bytes;
  let last = t.live.(t.n - 1) in
  t.live.(e.slot) <- last;
  last.slot <- e.slot;
  t.live.(t.n - 1) <- dummy;
  t.n <- t.n - 1;
  e.slot <- -1

(* Drop [e]'s reply and keep the rest: key, front keys, the parsed
   query and the flat layout. *)
let empty t e =
  let b = String.length e.value in
  e.bytes <- e.bytes - b;
  t.total_bytes <- t.total_bytes - b;
  e.value <- "";
  e.filled <- false

(* Drop the oldest live entries while either cap is exceeded. *)
let evict_over_caps t =
  while t.n > t.capacity || t.total_bytes > t.capacity_bytes do
    (* every live entry is queued, and a cap is only exceeded while
       some entry lives *)
    let key, stamp = Queue.take t.order in
    match Hashtbl.find_opt t.tbl key with
    | Some e when e.stamp = stamp ->
        remove t e;
        Counter.incr c_evictions
    | _ -> () (* stale pair from an invalidated entry *)
  done

(* Stale (key, stamp) pairs left behind by [invalidate] are normally
   drained by [evict_over_caps], but only while a cap is exceeded.
   Under steady store→invalidate churn the table stays small and the
   queue would grow for the life of the server, so whenever it bloats
   past twice the live-entry count it is rebuilt from the live pairs.
   Amortized O(1) per queue push. *)
let compact_if_bloated t =
  let qlen = Queue.length t.order in
  if qlen > 64 && qlen > 2 * t.n then begin
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

(* Make [front] lead to [e], counting its bytes. *)
let link t e = function
  | Some front when not (Hashtbl.mem t.fronts front) ->
      Hashtbl.add t.fronts front e;
      e.fronts <- front :: e.fronts;
      let b = String.length front in
      e.bytes <- e.bytes + b;
      t.total_bytes <- t.total_bytes + b;
      evict_over_caps t
  | _ -> ()

let find t ?front key =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some e when e.filled ->
        link t e front;
        Some e.value
    | _ -> None
  in
  Mutex.unlock t.mu;
  Counter.incr (if Option.is_some r then c_hits else c_misses);
  r

let find_front t front =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.fronts front with
    | Some e when e.filled -> Hit e.value
    | Some { parsed = Some (query, part); key; meta; _ } ->
        Refill { query; part; key; meta }
    | _ -> Absent
  in
  Mutex.unlock t.mu;
  (match r with
  | Hit _ -> Counter.incr c_hits
  | Refill _ ->
      Counter.incr c_misses;
      Counter.incr c_refills
  | Absent -> ());
  r

(* [hi >= top_of iv.lo] iff a non-NaN [hi] clears [iv]'s lower end, and
   [lo <= bottom_of iv.hi] iff a non-NaN [lo] clears its upper end. An
   open end becomes the next float inward; an end no value clears
   becomes NaN, which every comparison fails. *)
let top_of = function
  | I.Neg_inf -> Float.neg_infinity
  | I.Closed l -> l
  | I.Open l -> if l = Float.infinity then Float.nan else Float.succ l
  | I.Pos_inf -> Float.nan

let bottom_of = function
  | I.Pos_inf -> Float.infinity
  | I.Closed u -> u
  | I.Open u -> if u = Float.neg_infinity then Float.nan else Float.pred u
  | I.Neg_inf -> Float.nan

let compile schema (where_ : Pred.t) =
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
  | ranges ->
      let ranges = Array.of_list ranges in
      {
        test;
        evaluable = true;
        cols = Array.map fst ranges;
        top = Array.map (fun (_, iv) -> top_of iv.I.lo) ranges;
        bottom = Array.map (fun (_, iv) -> bottom_of iv.I.hi) ranges;
      }
  | exception Unevaluable -> { unknown with test }

(* Only an entry whose reply reads the certain side tests batch rows. *)
let compile_entry t e =
  match t.schema with
  | Some schema when not e.meta.missing_only -> e.sel <- compile schema e.meta.where_
  | _ -> ()

let set_meta t e meta =
  e.meta <- meta;
  e.pcs <- Array.of_list meta.pcs;
  e.sel <- unknown;
  compile_entry t e

(* Put [value] back into the emptied [e]. Its layout is kept when the
   store brings the meta it already holds (a refill passes it back). *)
let fill t e ~meta ?parsed value =
  if meta != e.meta then set_meta t e meta;
  if Option.is_some parsed then e.parsed <- parsed;
  e.value <- value;
  e.filled <- true;
  let b = String.length value in
  e.bytes <- e.bytes + b;
  t.total_bytes <- t.total_bytes + b

let store t ~meta ~version ?front ?parsed key value =
  Mutex.lock t.mu;
  (if version < t.version then Counter.incr c_stale_stores
   else
     match Hashtbl.find_opt t.tbl key with
     | Some e ->
         if not e.filled then fill t e ~meta ?parsed value;
         link t e front;
         evict_over_caps t
     | None ->
         let e =
           {
             key;
             value;
             filled = true;
             stamp = t.next_stamp;
             meta;
             parsed;
             pcs = [||];
             sel = unknown;
             fronts = [];
             bytes = String.length key + String.length value;
             slot = -1;
           }
         in
         set_meta t e meta;
         Hashtbl.add t.tbl key e;
         add_live t e;
         t.next_stamp <- t.next_stamp + 1;
         Queue.push (key, e.stamp) t.order;
         t.total_bytes <- t.total_bytes + e.bytes;
         link t e front;
         evict_over_caps t);
  Mutex.unlock t.mu

(* Sweep with rows of [schema]: recompile every entry unless they are
   compiled for it already (always, once a stream's schema is set). *)
let adopt t schema =
  match t.schema with
  | Some s when s == schema || Schema.equal s schema -> ()
  | _ ->
      t.schema <- Some schema;
      for i = 0 to t.n - 1 do
        compile_entry t t.live.(i)
      done

(* The batch's per-column hulls: each numeric column's [min, max] over
   its non-NaN values ([+inf, -inf] when it has none). [None] when some
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

(* Some numeric atom from [k] on misses its column's hull: every row
   fails it. A column with no non-NaN value has [lo = +inf] and
   [hi = -inf], which miss every atom here: an atom is not the full
   line, so its [top] is above -inf or its [bottom] below +inf. *)
let rec misses h s k =
  k < Array.length s.cols
  &&
  let c = s.cols.(k) in
  (not (h.hi.(c) >= s.top.(k) && h.lo.(c) <= s.bottom.(k))) || misses h s (k + 1)

let rec reaches marked pcs k =
  k < Array.length pcs
  &&
  let j = pcs.(k) in
  (j >= 0 && j < Array.length marked && Array.unsafe_get marked j)
  || reaches marked pcs (k + 1)

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
   selection. The hull test answers "no row" without the row test when
   every atom can be evaluated and some numeric atom misses its
   column's hull: every row then fails that atom, and none can raise,
   so [selects] would have answered [false] too. One pass over the
   live slots; nothing is allocated per entry. *)
let invalidate t ~version ~touched ~rows =
  let marked = Array.make (1 + List.fold_left max (-1) touched) false in
  List.iter (fun j -> if j >= 0 then marked.(j) <- true) touched;
  let hulls =
    match rows with
    | Some (schema, tuples) -> hulls schema tuples
    | None -> None
  in
  let evicted = ref 0 and row_tests = ref 0 in
  Mutex.lock t.mu;
  if version > t.version then t.version <- version;
  Option.iter (fun (schema, _) -> adopt t schema) rows;
  for i = t.n - 1 downto 0 do
    let e = t.live.(i) in
    let affected =
      e.filled
      && (reaches marked e.pcs 0
         || (not e.meta.missing_only)
            &&
            match rows with
            | None -> false
            | Some (_, tuples) ->
                let s = e.sel in
                (not
                   (s.evaluable
                   && match hulls with Some h -> misses h s 0 | None -> false))
                && begin
                     incr row_tests;
                     selects s.test tuples
                   end)
    in
    (* slots above [i] are swept, so the one [remove] moves down is too *)
    if affected then begin
      if Option.is_some e.parsed then empty t e else remove t e;
      incr evicted
    end
  done;
  compact_if_bloated t;
  Mutex.unlock t.mu;
  Counter.add c_invalidations !evicted;
  Counter.add c_row_tests !row_tests;
  if Pc_obs.Trace.enabled () then
    Pc_obs.Trace.add_attr "row_tests" (string_of_int !row_tests);
  !evicted

let size t =
  Mutex.lock t.mu;
  let n = t.n in
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

let add_part buf (query : Q.t) =
  let add = Buffer.add_string buf in
  let agg name a =
    add name;
    Buffer.add_char buf '(';
    Pred.add_quoted buf a;
    Buffer.add_char buf ')'
  in
  (match query.Q.agg with
  | Q.Count -> add "count"
  | Q.Sum a -> agg "sum" a
  | Q.Avg a -> agg "avg" a
  | Q.Min a -> agg "min" a
  | Q.Max a -> agg "max" a);
  add "|";
  Pred.add_canonical_key buf query.Q.where_

let add_flags buf ~missing_only ~timeout_ms =
  Buffer.add_string buf (if missing_only then "|m=true|t=" else "|m=false|t=");
  match timeout_ms with
  | None -> Buffer.add_char buf '-'
  | Some ms -> Pc_util.Float_text.add_hex buf ms

let query_part query =
  let buf = Buffer.create 96 in
  add_part buf query;
  Buffer.contents buf

let key_of_part ~digest part ~missing_only ~timeout_ms =
  let buf = Buffer.create (String.length digest + String.length part + 32) in
  Buffer.add_string buf digest;
  Buffer.add_char buf '|';
  Buffer.add_string buf part;
  add_flags buf ~missing_only ~timeout_ms;
  Buffer.contents buf

let key ~digest ~query ~missing_only ~timeout_ms =
  key_of_part ~digest (query_part query) ~missing_only ~timeout_ms

let front_key ~text ~missing_only ~timeout_ms =
  let buf = Buffer.create (String.length text + 32) in
  add_flags buf ~missing_only ~timeout_ms;
  Buffer.add_char buf '|';
  Buffer.add_string buf text;
  Buffer.contents buf
