(** Trace file I/O: text, binary (versioned + checksummed), and Dinero.

    Every reader returns a {!Stdlib.result} carrying a typed
    {!Dse_error.t} — a corrupt input can never escape as a raw
    [Failure] or [End_of_file]. Readers also support a lenient
    ingestion mode ({!on_error}) that skips malformed records, counts
    them, and reports the earliest few, for salvaging real-world traces
    with isolated damage.

    Each format has one parser, which feeds a sink. The materialising
    readers ([load], [load_binary], [load_dinero]) make the sink append
    to a {!Trace.t}; {!iter} hands the sink to its caller, which is how
    exact [dse explore] ([Analytical.stream_file]) and the approximate
    plane read a file in one pass without holding the trace. Both give
    the same records, skipped-record summaries and errors. *)

(** What to do when a malformed line/record is encountered:
    - [Fail] (the default): return the first error;
    - [Skip]: drop malformed records, count them, keep reading;
    - [Stop_after n]: tolerate up to [n] malformed records, then return
      the next error ([Stop_after 0] behaves like [Fail]). *)
type on_error = Fail | Skip | Stop_after of int

(** A successful (possibly lenient) read: the parsed trace, how many
    malformed records were skipped, and the earliest skipped errors
    (capped at {!max_reported_errors}). *)
type ingest = { trace : Trace.t; skipped : int; errors : Dse_error.t list }

(** A successful one-pass scan ({!scan}/{!iter}): how many well-formed
    references were fed to the sink, plus the same lenient-mode
    accounting as {!ingest} — but no trace, because none was built. *)
type stream = { refs : int; skipped : int; errors : Dse_error.t list }

(** The three on-disk trace encodings, as selected by [dse --format]. *)
type format = [ `Text | `Binary | `Dinero ]

(** Cap on the per-read [errors] list (5). *)
val max_reported_errors : int

(** Lines longer than this (4096 bytes) are rejected as malformed. *)
val max_line_length : int

(** {2 Text format}

    One access per line: a kind letter ([F] fetch, [R] read, [W] write)
    followed by a word address ([0x]-prefixed hex or decimal), e.g.
    [R 0x1a3f]. Blank lines and lines starting with [#] are ignored. *)

val write : out_channel -> Trace.t -> unit

(** [read ?on_error ?file channel] parses a text trace. [file] labels
    errors (defaults to ["<channel>"]). *)
val read : ?on_error:on_error -> ?file:string -> in_channel -> (ingest, Dse_error.t) result

val load : ?on_error:on_error -> string -> (ingest, Dse_error.t) result

val save : string -> Trace.t -> (unit, Dse_error.t) result

(** {2 Binary format}

    The writer emits v2, a {!Wire} frame with magic ["DSEB"] and
    version 2 whose length field is the record count and whose payload
    is one {!Wire} trace record per access; the CRC-32 footer over every
    preceding byte detects any single-byte corruption or truncation
    deterministically. Legacy v1 files (magic ["DSET"], no version byte,
    no footer) are still readable. Structural damage (bad magic,
    truncated or overwide varint, length or CRC mismatch) aborts the
    read under [Fail]; under the lenient modes the records parsed so far
    are kept, since no resynchronisation is possible inside a varint
    stream. *)

val write_binary : out_channel -> Trace.t -> unit

(** [write_binary_stream channel ~length produce] writes a v2 binary
    trace whose records are produced one at a time by the callback
    handed to [produce] — the generator side of the no-boxed-array
    pipeline, so a 10^8-reference synthetic file never exists in memory.
    Raises [Invalid_argument] if [produce] emits a number of records
    different from the declared [length]. *)
val write_binary_stream :
  out_channel -> length:int -> ((addr:int -> kind:Trace.kind -> unit) -> unit) -> unit

val read_binary :
  ?on_error:on_error -> ?file:string -> in_channel -> (ingest, Dse_error.t) result

val load_binary : ?on_error:on_error -> string -> (ingest, Dse_error.t) result

val save_binary : string -> Trace.t -> (unit, Dse_error.t) result

(** {2 Dinero import}

    The classic Dinero/din format: one access per line, a numeric label
    (0 read, 1 write, 2 instruction fetch) followed by a hex address.
    Blank lines are ignored. *)

val read_dinero :
  ?on_error:on_error -> ?file:string -> in_channel -> (ingest, Dse_error.t) result

val load_dinero : ?on_error:on_error -> string -> (ingest, Dse_error.t) result

(** {2 One-pass streaming}

    The memory-honest ingestion path: every well-formed access is handed
    to a sink callback in file order and nothing is retained — no boxed
    address array, no {!Trace.t}. Exact [dse explore] feeds the arena
    kernel's interner and step from it, in O(N') memory;
    [dse explore --approx] feeds its sketch, in O(kilobytes). Error handling (lenient modes, typed failures, CRC checking
    for the binary format) is byte-for-byte the same machinery as the
    materialising readers — the parsers are shared. *)

(** [scan ?on_error ?file ?format channel sink] drains [channel],
    calling [sink] once per well-formed access. [format] defaults to
    [`Text]. *)
val scan :
  ?on_error:on_error ->
  ?file:string ->
  ?format:format ->
  in_channel ->
  (addr:int -> kind:Trace.kind -> unit) ->
  (stream, Dse_error.t) result

(** [iter ?on_error ?format path sink] opens [path] (binary-safe when
    [format] is [`Binary]) and {!scan}s it. *)
val iter :
  ?on_error:on_error ->
  ?format:format ->
  string ->
  (addr:int -> kind:Trace.kind -> unit) ->
  (stream, Dse_error.t) result

(** [io_error path message] is the typed error for a [Sys_error]
    [message] raised on [path], with the path that [Sys_error] messages
    may lead with stripped, so it is printed once. *)
val io_error : string -> string -> Dse_error.t

(** {2 Raising conveniences}

    For quick library use; each raises {!Dse_error.Error} instead of
    returning a result, and discards the skipped-record summary. *)

val load_exn : ?on_error:on_error -> string -> Trace.t

val load_binary_exn : ?on_error:on_error -> string -> Trace.t

val load_dinero_exn : ?on_error:on_error -> string -> Trace.t
