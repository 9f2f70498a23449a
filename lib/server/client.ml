type t = {
  fd : Unix.file_descr;
  reader : Net.reader;
  mutable closed : bool;
}

let connect ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; reader = Net.reader ~poll_s:0.05 fd; closed = false }

let send t line = Net.write_line t.fd line

let request t line =
  match
    send t line;
    Net.read_line t.reader
  with
  | `Line reply -> Some reply
  | `Eof | `Stopped -> None
  | exception Net.Closed -> None

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
