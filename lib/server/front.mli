(** The connection front shared by the daemon ([Server]) and the
    gateway ([Router]).

    One [select] loop accepts on every listener, tunes each connection
    ({!Transport.tune}, a 30 s [SO_RCVTIMEO]/[SO_SNDTIMEO]) and pushes
    it onto a bounded {!Job_queue}, answering a full queue itself with a
    typed {!Dse_error.Queue_full}. A fixed pool of handler threads pops
    connections and runs the caller's [handle fd], which reads one
    request and answers it, so a client that trickles its frame holds
    one handler, never the front. Handlers are threads on the calling
    domain: they mostly wait on sockets, and a thread has no minor heap
    of its own. The loop's 0.1 s select timeout is also the caller's
    [tick]. *)

(** [run ~listeners ~handlers ~max_pending ~stopping ~tick ?refused ~log
    handle] serves until [stopping] is set, then drains: the listeners
    close, and every connection already accepted is still handled
    before the handlers are joined and [run] returns. [handle fd] owns
    [fd]; an exception escaping it is logged and the connection closed.
    [refused] is called for each connection the full queue refuses.
    Raises [Invalid_argument] when [handlers < 1] or [max_pending < 1]. *)
val run :
  listeners:Unix.file_descr list ->
  handlers:int ->
  max_pending:int ->
  stopping:bool Atomic.t ->
  tick:(unit -> unit) ->
  ?refused:(unit -> unit) ->
  log:(string -> unit) ->
  (Unix.file_descr -> unit) ->
  unit
