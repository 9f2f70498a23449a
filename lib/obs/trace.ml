type span = {
  name : string;
  attrs : (string * string) list;
  t0_ns : int64;
  dur_ns : int64;
  depth : int;
}

(* An open span is mutable so [add_attr] can annotate it until it closes. *)
type open_span = {
  o_name : string;
  mutable o_attrs : (string * string) list;
  o_t0 : int64;
  o_depth : int;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* The one recording state, shared without a lock by every thread of the
   process (the server's connection threads included). *)
let stack : open_span list ref = ref []
let out : span list ref = ref []  (* reverse chronological *)

(* Export timestamps are relative to this epoch so they stay readable. *)
let epoch = Atomic.make (Pc_util.Clock.now_ns ())

let reset () =
  stack := [];
  out := [];
  Atomic.set epoch (Pc_util.Clock.now_ns ())

let with_span ?(attrs = []) ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let sp =
      {
        o_name = name;
        o_attrs = attrs;
        o_t0 = Pc_util.Clock.now_ns ();
        o_depth = List.length !stack;
      }
    in
    stack := sp :: !stack;
    let close () =
      (* Usually the head; a [reset] mid-span may have emptied the stack. *)
      stack := List.filter (fun s -> s != sp) !stack;
      let dur = Int64.sub (Pc_util.Clock.now_ns ()) sp.o_t0 in
      out :=
        {
          name = sp.o_name;
          attrs = sp.o_attrs;
          t0_ns = sp.o_t0;
          dur_ns = (if Int64.compare dur 0L < 0 then 0L else dur);
          depth = sp.o_depth;
        }
        :: !out
    in
    Fun.protect ~finally:close f
  end

let add_attr k v =
  if Atomic.get enabled_flag then begin
    match !stack with
    | [] -> ()
    | sp :: _ -> sp.o_attrs <- (k, v) :: sp.o_attrs
  end

let spans () = List.sort (fun a b -> Int64.compare a.t0_ns b.t0_ns) !out

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
        ("tid", Json.Num 0.);
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
