module Relation = Pc_data.Relation
module Batch = Pc_data.Batch
module Schema = Pc_data.Schema
module Fdd = Pc_predicate.Fdd
module Pc = Pc_core.Pc
module Pc_set = Pc_core.Pc_set

type info = {
  batch_id : int;
  version : int;
  rows : int;
  touched : int list;
  delta : int array;
}

type snapshot = {
  version : int;
  certain : Relation.t option;
  consumed : int array;
  residual : Pc_set.t;
}

(* [rel] is the batch's relation: a retraction rebuilds the certain
   side from the kept ones. *)
type entry = { id : int; rel : Relation.t; delta : int array }

type state = {
  snap : snapshot;
  entries : entry list;  (* arrival order, oldest first *)
}

type t = {
  base_set : Pc_set.t;
  base_certain : Relation.t option;
  fdd : Fdd.compiled;
  cell : state Atomic.t;
  mu : Mutex.t;  (* serializes writers; readers go through [cell] only *)
  mutable next_id : int;  (* guarded by [mu] *)
}

(* The residual constraint system after consuming [c] rows of each PC's
   missing-row budget: ku' = (ku − c)⁺ and kl' = (kl − c)⁺ clamped into
   [0, ku']. kl ≤ ku gives kl − c ≤ ku − c, so the clamp only fires when
   consumption exceeded ku (certain data outran the constraint estimate
   — the residual stays well-formed and conservative). Only frequency
   ranges change, so every residual shares the base set's flat table
   and disjointness flag, built once for the stream's life. *)
let residual_of set consumed =
  Pc_set.map_freqs
    (fun j (pc : Pc.t) ->
      let c = consumed.(j) in
      let ku = max 0 (pc.Pc.freq_hi - c) in
      (min ku (max 0 (pc.Pc.freq_lo - c)), ku))
    set

let create ?certain ~fdd base_set =
  let n = Pc_set.size base_set in
  if Fdd.n_preds fdd <> n then
    invalid_arg "Stream.create: fdd size disagrees with the PC set";
  let consumed = Array.make n 0 in
  {
    base_set;
    base_certain = certain;
    fdd;
    cell =
      Atomic.make
        {
          snap = { version = 0; certain; consumed; residual = base_set };
          entries = [];
        };
    mu = Mutex.create ();
    next_id = 0;
  }

let snapshot t = (Atomic.get t.cell).snap

let schema t =
  match (Atomic.get t.cell).snap.certain with
  | Some r -> Some (Relation.schema r)
  | None -> None

let batches t =
  List.map (fun e -> (e.id, Relation.cardinality e.rel)) (Atomic.get t.cell).entries

let find_batch t ~batch_id =
  List.find_opt
    (fun e -> e.id = batch_id)
    (Atomic.get t.cell).entries
  |> Option.map (fun e -> Batch.of_relation e.rel)

let batch_delta t batch =
  let n = Pc_set.size t.base_set in
  let delta = Array.make n 0 in
  let schema = Batch.schema batch in
  Batch.iter
    (fun row ->
      List.iter
        (fun j -> delta.(j) <- delta.(j) + 1)
        (Fdd.route t.fdd schema row))
    batch;
  delta

let touched_of delta =
  let acc = ref [] in
  Array.iteri (fun j d -> if d <> 0 then acc := j :: !acc) delta;
  List.rev !acc

let with_writer t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let make_snap t st ~certain ~consumed =
  {
    version = st.snap.version + 1;
    certain;
    consumed;
    residual = residual_of t.base_set consumed;
  }

(* The publish seam: [before_publish] observes the batch's [info] while
   the writer mutex is held and the old snapshot is still the visible
   one. The server hangs cache invalidation here, so by the time the
   new version is readable no cached reply the batch could have changed
   still exists — and the cache's version fence is already advanced
   against in-flight replies pinned to the old snapshot. The callback
   must not raise: a raise aborts the publish (the batch is lost). *)
let publish t ~before_publish ~info ~snap ~entries =
  before_publish info;
  Atomic.set t.cell { snap; entries };
  Ok (info, snap)

let append ?(before_publish = ignore) t batch =
  with_writer t (fun () ->
      let st = Atomic.get t.cell in
      let schema_ok =
        match st.snap.certain with
        | None -> Ok ()
        | Some r ->
            if Schema.equal (Relation.schema r) (Batch.schema batch) then Ok ()
            else Error "append: batch schema disagrees with the certain schema"
      in
      match schema_ok with
      | Error _ as e -> e
      | Ok () -> (
          match batch_delta t batch with
          | exception Not_found ->
              Error "append: a routed attribute is missing from the batch schema"
          | exception Invalid_argument msg -> Error ("append: " ^ msg)
          | delta ->
              let consumed =
                Array.mapi (fun j c -> c + delta.(j)) st.snap.consumed
              in
              let rel = Batch.to_relation batch in
              let certain =
                match st.snap.certain with
                | None -> Some rel
                | Some r -> Some (Relation.union r rel)
              in
              let id = t.next_id in
              t.next_id <- id + 1;
              let entries = st.entries @ [ { id; rel; delta } ] in
              let snap = make_snap t st ~certain ~consumed in
              let info =
                {
                  batch_id = id;
                  version = snap.version;
                  rows = Batch.rows batch;
                  touched = touched_of delta;
                  delta;
                }
              in
              publish t ~before_publish ~info ~snap ~entries))

let retract ?(before_publish = ignore) t ~batch_id =
  with_writer t (fun () ->
      let st = Atomic.get t.cell in
      match List.find_opt (fun e -> e.id = batch_id) st.entries with
      | None -> Error (Printf.sprintf "retract: no batch %d" batch_id)
      | Some e ->
          let entries = List.filter (fun e' -> e'.id <> batch_id) st.entries in
          let consumed =
            Array.mapi (fun j c -> max 0 (c - e.delta.(j))) st.snap.consumed
          in
          (* rebuild the certain side from the base load plus the
             surviving batches, in arrival order *)
          let certain =
            List.fold_left
              (fun acc e' ->
                match acc with
                | None -> Some e'.rel
                | Some r -> Some (Relation.union r e'.rel))
              t.base_certain entries
          in
          let snap = make_snap t st ~certain ~consumed in
          let info =
            {
              batch_id;
              version = snap.version;
              rows = Relation.cardinality e.rel;
              touched = touched_of e.delta;
              delta = Array.map (fun d -> -d) e.delta;
            }
          in
          publish t ~before_publish ~info ~snap ~entries)
