(** Minimal blocking line client for the {!Server} protocol.

    One connection, one request at a time: {!request} writes a line and
    blocks for the one reply line. Used by the CLI's [pcda client],
    [pcda ingest] and [pcda top], the benchmark's served workloads, and
    the chaos tests; a real deployment would speak the (trivial)
    protocol from any language. *)

type t

val connect : host:string -> port:int -> t
(** Raises [Unix.Unix_error] if the server is unreachable. *)

val request : t -> string -> string option
(** Send one line (the newline is appended) and wait for the reply
    line. [None] when the server closed the connection instead of
    replying (e.g. a drained server or an injected socket fault). *)

val send : t -> string -> unit
(** Fire-and-forget write, for tests that tear the protocol on
    purpose. Raises {!Net.Closed} if the connection is gone. *)

val close : t -> unit
(** Idempotent. *)
