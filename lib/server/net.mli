(** Robust socket plumbing for the bound server and its clients.

    Wraps the handful of [Unix] calls the server relies on so that the
    two classic line-protocol killers cannot reach process scope:

    - {b SIGPIPE}: a client hanging up mid-reply turns the next write
      into a fatal signal unless it is ignored process-wide
      ({!ignore_sigpipe}); with it ignored, the write fails with
      [EPIPE], which these wrappers turn into {!Closed} — an ordinary,
      per-connection exception.
    - {b EINTR}: every read/write/accept/connect here retries on
      [EINTR], so signal delivery (SIGTERM starting a drain, SIGCHLD
      from a harness) never surfaces as a spurious I/O error.

    A reader owns one read buffer for its connection's lifetime and
    holds every line to a hard length cap. It blocks in [read] under a
    receive timeout ([SO_RCVTIMEO]) of [poll_s], so a blocked reader
    observes a drain flag within one slice instead of hanging shutdown
    forever, and a request costs one [read] syscall. *)

exception Closed
(** The peer is gone ([EPIPE], [ECONNRESET], [ESHUTDOWN], or a write
    after close). Connection-scoped: handlers catch it, drop the
    connection, and the server keeps serving. *)

exception Line_too_long
(** The peer sent more than the configured cap without a newline; the
    stream cannot be resynchronized and must be dropped. *)

val ignore_sigpipe : unit -> unit
(** Idempotent; call once at process start (both [pcda] and the server
    do). No-op on platforms without [SIGPIPE]. *)

val write_string : Unix.file_descr -> string -> unit
(** Write the whole string, retrying partial writes and [EINTR];
    raises {!Closed} when the peer is gone. *)

val write_line : Unix.file_descr -> string -> unit
(** {!write_string} of the line and its newline. A line of at most
    64 KiB goes out with its newline in one [write]; a longer one is
    written in place up to its last 64 KiB, which leave with the
    newline, so at most 64 KiB + 1 bytes are copied. *)

type reader
(** Buffered line reader over one socket: one 64 KiB buffer, reused
    for every line; a longer line is collected in 64 KiB pieces and
    copied once, so reading it takes linear time and allocates about
    twice its length. *)

val reader : ?max_line:int -> ?poll_s:float -> Unix.file_descr -> reader
(** [max_line] caps the bytes of a line before its newline (a CR
    included), default 16 MiB — inline CSV loads are legitimate,
    unbounded garbage is not. [poll_s] (default 0.1 s, at least 1 ms)
    becomes the socket's receive timeout, set once here. *)

val read_line :
  ?stop:(unit -> bool) -> reader -> [ `Line of string | `Eof | `Stopped ]
(** Next LF-terminated line (the terminator, and a preceding CR, are
    stripped). Blocks in [read] slices of the reader's [poll_s],
    re-checking [stop] between slices: [`Stopped] reports a drain request, [`Eof] a clean
    hangup (a final unterminated partial line is discarded). Raises
    {!Line_too_long} on a line longer than the cap, whether it arrived
    whole or is still arriving. *)
