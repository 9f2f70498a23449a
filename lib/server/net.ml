exception Closed
exception Line_too_long

let ignore_sigpipe () =
  (* [sigpipe] is not wired up on every platform; ignore failures. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let closed_error = function
  | Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN | Unix.EBADF | Unix.ENOTCONN ->
      true
  | _ -> false

(* [s.[pos, len)], retrying partial writes and [EINTR]. *)
let write_sub fd s pos len =
  let stop = pos + len in
  let pos = ref pos in
  while !pos < stop do
    match Unix.write_substring fd s !pos (stop - !pos) with
    | 0 -> raise Closed
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) when closed_error e -> raise Closed
  done

let write_string fd s = write_sub fd s 0 (String.length s)
let chunk = 65536

(* A line and its newline leave in one write when the line fits in
   [chunk]: a reply and its newline sent apart would meet Nagle's
   algorithm and the peer's delayed ACK. A longer line goes out in
   place up to its last [chunk] bytes, which are copied once with the
   newline, so sending a 16 MiB [load] never copies all of it. *)
let write_line fd s =
  let len = String.length s in
  if len <= chunk then write_string fd (s ^ "\n")
  else begin
    let head = len - chunk in
    write_sub fd s 0 head;
    let tail = Bytes.create (chunk + 1) in
    Bytes.blit_string s head tail 0 chunk;
    Bytes.set tail chunk '\n';
    write_string fd (Bytes.unsafe_to_string tail)
  end

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;  (** the connection's one read buffer, [chunk] bytes *)
  mutable pos : int;  (** first byte not yet returned *)
  mutable len : int;  (** end of the bytes read *)
  mutable scanned : int;  (** [buf.[pos, scanned)] holds no newline *)
  mutable spill : string list;
      (** earlier pieces of a line longer than [buf], newest first *)
  mutable spilled : int;  (** their total length *)
  max_line : int;
  mutable eof : bool;
}

(* [SO_RCVTIMEO] of zero means "block forever", so the slice is at
   least a millisecond. *)
let reader ?(max_line = 16 * 1024 * 1024) ?(poll_s = 0.1) fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max poll_s 0.001);
  {
    fd;
    buf = Bytes.create chunk;
    pos = 0;
    len = 0;
    scanned = 0;
    spill = [];
    spilled = 0;
    max_line;
    eof = false;
  }

let rec index_nl buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else index_nl buf (i + 1) stop

(* The line ending at [buf.[i]] = '\n': the spilled pieces, then
   [buf.[pos, i)], copied once; a final CR costs one more copy. *)
let cut_line r i =
  let tail = i - r.pos in
  let n = r.spilled + tail in
  let line = Bytes.create n in
  ignore
    (List.fold_left
       (fun at p ->
         let at = at - String.length p in
         Bytes.blit_string p 0 line at (String.length p);
         at)
       r.spilled r.spill);
  Bytes.blit r.buf r.pos line r.spilled tail;
  r.spill <- [];
  r.spilled <- 0;
  r.pos <- i + 1;
  r.scanned <- r.pos;
  if r.pos = r.len then begin
    r.pos <- 0;
    r.len <- 0;
    r.scanned <- 0
  end;
  if n > 0 && Bytes.get line (n - 1) = '\r' then Bytes.sub_string line 0 (n - 1)
  else Bytes.unsafe_to_string line

(* The next complete line, if one has arrived. Scans only the bytes
   that arrived since the last call; every complete line is held to
   the cap, whether it came in one read or in many. *)
let take_line r =
  match index_nl r.buf r.scanned r.len with
  | -1 ->
      r.scanned <- r.len;
      None
  | i ->
      if r.spilled + (i - r.pos) > r.max_line then raise Line_too_long;
      Some (cut_line r i)

(* Room to read into: a partial line is moved to the front of the
   buffer, or, when it fills the whole buffer, spilled to a piece. *)
let make_room r =
  if r.len = chunk then
    if r.pos > 0 then begin
      Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
      r.len <- r.len - r.pos;
      r.scanned <- r.scanned - r.pos;
      r.pos <- 0
    end
    else begin
      r.spill <- Bytes.sub_string r.buf 0 chunk :: r.spill;
      r.spilled <- r.spilled + chunk;
      r.len <- 0;
      r.scanned <- 0
    end

let read_line ?(stop = fun () -> false) r =
  let rec go () =
    match take_line r with
    | Some line -> `Line line
    | None ->
        if r.eof then `Eof
        else if r.spilled + (r.len - r.pos) > r.max_line then raise Line_too_long
        else if stop () then `Stopped
        else begin
          make_room r;
          match Unix.read r.fd r.buf r.len (chunk - r.len) with
          | 0 ->
              r.eof <- true;
              go ()
          | n ->
              r.len <- r.len + n;
              go ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              go () (* poll slice elapsed; re-check [stop] *)
          | exception Unix.Unix_error (e, _, _) when closed_error e ->
              r.eof <- true;
              go ()
        end
  in
  go ()
