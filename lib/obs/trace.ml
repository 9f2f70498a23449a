type span = {
  name : string;
  attrs : (string * string) list;
  t0_ns : int64;
  dur_ns : int64;
  depth : int;
  domain : int;
}

(* An open span is mutable so [add_attr] can annotate it until it closes. *)
type open_span = {
  o_name : string;
  mutable o_attrs : (string * string) list;
  o_t0 : int64;
  o_depth : int;
}

(* Per-domain recording state. The owning domain is the only writer of
   [stack] and [out]; the registration list is the only shared structure
   and is mutex-protected. Export happens after parallel work joins, so
   reading [out] without the owner's cooperation is safe in practice. *)
type dstate = {
  dom_id : int;
  mutable stack : open_span list;
  mutable out : span list;  (* reverse chronological *)
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let reg_mutex = Mutex.create ()
let states : dstate list ref = ref []

(* Export timestamps are relative to this epoch so they stay readable. *)
let epoch = Atomic.make (Pc_util.Clock.now_ns ())

let key =
  Domain.DLS.new_key (fun () ->
      let st = { dom_id = (Domain.self () :> int); stack = []; out = [] } in
      Mutex.lock reg_mutex;
      states := st :: !states;
      Mutex.unlock reg_mutex;
      st)

let reset () =
  Mutex.lock reg_mutex;
  List.iter
    (fun st ->
      st.stack <- [];
      st.out <- [])
    !states;
  Mutex.unlock reg_mutex;
  Atomic.set epoch (Pc_util.Clock.now_ns ())

let with_span ?(attrs = []) ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let st = Domain.DLS.get key in
    let sp =
      {
        o_name = name;
        o_attrs = attrs;
        o_t0 = Pc_util.Clock.now_ns ();
        o_depth = List.length st.stack;
      }
    in
    st.stack <- sp :: st.stack;
    let close () =
      (* Usually the head; a [reset] mid-span may have emptied the stack. *)
      st.stack <- List.filter (fun s -> s != sp) st.stack;
      let dur = Int64.sub (Pc_util.Clock.now_ns ()) sp.o_t0 in
      st.out <-
        {
          name = sp.o_name;
          attrs = sp.o_attrs;
          t0_ns = sp.o_t0;
          dur_ns = (if Int64.compare dur 0L < 0 then 0L else dur);
          depth = sp.o_depth;
          domain = st.dom_id;
        }
        :: st.out
    in
    Fun.protect ~finally:close f
  end

let add_attr k v =
  if Atomic.get enabled_flag then begin
    match (Domain.DLS.get key).stack with
    | [] -> ()
    | sp :: _ -> sp.o_attrs <- (k, v) :: sp.o_attrs
  end

let spans () =
  Mutex.lock reg_mutex;
  let all = List.concat_map (fun st -> st.out) !states in
  Mutex.unlock reg_mutex;
  List.sort (fun a b -> Int64.compare a.t0_ns b.t0_ns) all

let span_names () =
  List.sort_uniq String.compare (List.map (fun sp -> sp.name) (spans ()))

let totals_by_name () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let c, t =
        Option.value (Hashtbl.find_opt tbl sp.name) ~default:(0, 0L)
      in
      Hashtbl.replace tbl sp.name (c + 1, Int64.add t sp.dur_ns))
    (spans ());
  Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl []
  |> List.sort (fun (na, _, a) (nb, _, b) ->
         match Int64.compare b a with 0 -> String.compare na nb | n -> n)

let to_chrome_json () =
  let e = Atomic.get epoch in
  let us ns = Json.Num (Int64.to_float ns /. 1e3) in
  let event sp =
    Json.Obj
      [
        ("name", Json.Str sp.name);
        ("ph", Json.Str "X");
        ("ts", us (Int64.sub sp.t0_ns e));
        ("dur", us sp.dur_ns);
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int sp.domain));
        ( "args",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Str v))
               (("depth", string_of_int sp.depth) :: List.rev sp.attrs)) );
      ]
  in
  Json.to_string (Json.Arr (List.map event (spans ()))) ^ "\n"

let summary () =
  let totals = totals_by_name () in
  let b = Buffer.create 256 in
  Buffer.add_string b "trace summary (total time per span, widest first):\n";
  if totals = [] then Buffer.add_string b "  (no spans recorded)\n"
  else
    List.iter
      (fun (name, count, total) ->
        Buffer.add_string b
          (Printf.sprintf "  %-28s %8d call%s %12.3f ms\n" name count
             (if count = 1 then " " else "s")
             (Int64.to_float total /. 1e6)))
      totals;
  Buffer.contents b
