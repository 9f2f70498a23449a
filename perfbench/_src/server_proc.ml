(* A real `pcda serve` process, driven over one connection. *)

module J = Pc_obs.Json
module Client = Pc_server.Client

type t = {
  pid : int;
  out : in_channel;  (** the server's stdout: banner, then "drained" *)
  conn : Client.t;
  mutable alive : bool;
}

let running : t list ref = ref []

(* Whatever happens to the bench, no server outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun s ->
          if s.alive then begin
            (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
            s.alive <- false
          end)
        !running)

let spawn ~pcda ~workdir ~args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile
      (Filename.concat workdir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process pcda
      (Array.of_list ((pcda :: "serve" :: "--port" :: "0" :: args)))
      null out_w log
  in
  Unix.close out_w;
  Unix.close log;
  Unix.close null;
  let out = Unix.in_channel_of_descr out_r in
  let port =
    match input_line out with
    | line -> (
        match Scanf.sscanf line "listening on %s@:%d" (fun _ p -> p) with
        | p -> p
        | exception _ -> Util.fail "unexpected server banner %S" line)
    | exception End_of_file ->
        ignore (Unix.waitpid [] pid);
        Util.fail "pcda serve exited before listening (see %s/server.log)" workdir
  in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  let s = { pid; out; conn; alive = true } in
  running := s :: !running;
  s

(* One request, one reply line. A dropped connection ends the run: the
   remaining script could not be driven. *)
let request s line =
  match Client.request s.conn line with
  | Some reply -> reply
  | None -> Util.fail "server closed the connection"

let shutdown s =
  ignore (request s {|{"op":"shutdown"}|});
  Client.close s.conn;
  (try
     while true do
       ignore (input_line s.out)
     done
   with End_of_file -> ());
  close_in_noerr s.out;
  let _, status = Unix.waitpid [] s.pid in
  s.alive <- false;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Util.fail "pcda serve did not drain cleanly"

(* The server's registry counters, read live from the Prometheus view. *)
let counters s =
  let reply = request s {|{"op":"telemetry","view":"prometheus"}|} in
  let text =
    match J.parse reply with
    | Ok v -> Option.value (Option.bind (J.member "text" v) J.to_str) ~default:""
    | Error _ -> ""
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
        match String.split_on_char ' ' line with
        | [ name; v ] -> (
            match float_of_string_opt v with
            | Some x -> Hashtbl.replace tbl name x
            | None -> ())
        | _ -> ())
    (String.split_on_char '\n' text);
  fun name ->
    let prom =
      "pcda_" ^ String.map (fun c -> if c = '.' then '_' else c) name
    in
    Option.value (Hashtbl.find_opt tbl prom) ~default:0.

let delta before after name = int_of_float (after name -. before name)
