(** Crash-safe file persistence primitives.

    [atomic_write] is the write-side half of every durable artifact in the
    system (feed checkpoints, shard snapshots, serve manifests): the
    content goes to a uniquely named temporary file in the destination
    directory, is flushed and fsynced, renamed over the destination, and
    the parent directory is fsynced so the rename itself is power-loss
    durable. POSIX rename is atomic, so a reader never observes a
    half-written destination — a crash at any byte boundary leaves either
    the previous file intact or a stale temp sibling that readers ignore
    and {!sweep_temps} removes at the next boot.

    Temp names are [<path>.tmp.<pid>.<counter>]: unique per writer, so two
    concurrent writers to the same destination never stage into the same
    file (last rename wins, each rename is whole).

    {2 Sealed images}

    Every whole-file durable image shares one codec: {!seal} writes a
    [<magic> v<N>] header line, newline-terminated body lines, and a
    [checksum <16 hex>] trailer holding the FNV-1a-64 of everything
    before it; {!unseal} checks that checksum before it reads the magic
    or the version. The sealed kinds and their current versions:

    - [mqdp-feed-checkpoint v2] — [Mqdp.Feed.checkpoint];
    - [mqdp-shard-snapshot v2] — [Mqdp.Shard.snapshot], whose profile
      blobs embed feed checkpoints;
    - [mqdp-serve state v2] — the [mqdp_serve --state-dir] manifest
      ([Mqdp.Serve.manifest]).

    Any other version of a kind raises {!Unsupported_version}; damage
    raises {!Corrupt}. Bodies are parsed with the line {!cursor}.

    {!Journal} layers an append-only, per-record-checksummed record log on
    top: the durable-session-journal substrate of [Mqdp.Serve]
    (DESIGN.md §21), [mqdp-journal v1], torn-tail tolerant, hashed with
    the same {!fnv64}.

    The [?crash_after] hooks exist for the fault-injection tests: they
    make the writer die (raising {!Crashed}) after exactly that many bytes
    have reached the disk, simulating a process killed mid-write. *)

(** Raised by the [?crash_after] test hooks once the requested number of
    bytes has been written. [temp] is the file holding the torn bytes:
    the staging sibling for {!atomic_write} (destination untouched), the
    journal file itself for {!Journal.append} (torn tail truncated on the
    next open). *)
exception Crashed of { path : string; temp : string; written : int }

(** [atomic_write ?fsync ?crash_after ~path content] — write [content] to
    a fresh temp sibling, optionally fsync (default [true]), rename onto
    [path], then fsync the parent directory. With [crash_after:n], raises
    {!Crashed} after [n] bytes, leaving the torn temp file and never
    renaming. *)
val atomic_write : ?fsync:bool -> ?crash_after:int -> path:string -> string -> unit

(** [temp_path path] — a fresh, never-before-returned temp sibling name
    for [path]. Each call returns a distinct name. *)
val temp_path : string -> string

(** [is_temp name] — does [name] (a basename or path) look like a temp
    sibling produced by {!temp_path}? *)
val is_temp : string -> bool

(** [sweep_temps dir] — unlink every stale temp sibling directly under
    [dir]; returns how many were removed. Call once at boot, before any
    writer is live: a temp file that survived to the next process start
    is by definition the debris of a crashed writer. Returns [0] when
    [dir] is unreadable. *)
val sweep_temps : string -> int

(** [read path] — the whole file as a string. Raises [Sys_error]. *)
val read : string -> string

(** [remove_tree path] — recursively delete a file or directory tree.
    Missing paths and undeletable entries are skipped silently. *)
val remove_tree : string -> unit

(** [remove_if_exists path] — unlink [path] when present; never raises on
    a missing file. *)
val remove_if_exists : string -> unit

(** {2 Sealed-image codec} *)

(** Damaged or structurally invalid data. *)
exception Corrupt of string

(** An intact image of the right kind at another version ([found] is the
    header's token, e.g. ["v1"]): a format skew, not damage. *)
exception Unsupported_version of { found : string; expected : int }

val corrupt : ('a, unit, string, 'b) format4 -> 'a
val fnv64 : string -> int64

(** {3 Field writers}

    Body lines are written token by token into the buffer {!seal} hands
    its callback. Each writer appends exactly the bytes of the [Printf]
    or [String] function it names and allocates nothing beyond buffer
    growth. *)

(** [add_int b n] appends [string_of_int n] (["%d"]). *)
val add_int : Buffer.t -> int -> unit

(** [add_hex64 b h] appends [Printf.sprintf "%016Lx" h]: 16 lowercase
    hex digits, zero-padded. Journal records and seal trailers carry
    their checksums in this form. *)
val add_hex64 : Buffer.t -> int64 -> unit

(** [add_hex_halves b hi lo] appends [add_hex64] of the 64-bit word whose
    high and low 32-bit halves are [hi] and [lo] (each in [0, 2{^32})):
    a writer for callers that split a word themselves so that no int64
    or float is boxed on its way here. *)
val add_hex_halves : Buffer.t -> int -> int -> unit

(** [add_float_bits b f] appends the IEEE-754 bit pattern of [f] as 16
    lowercase hex digits (["%016Lx"] of [Int64.bits_of_float f]), so
    every float, NaN payloads and [-0.] included, round-trips exactly. *)
val add_float_bits : Buffer.t -> float -> unit

(** [add_escaped b s] appends [String.escaped s]; {!unescape} inverts it. *)
val add_escaped : Buffer.t -> string -> unit

(** [seal ~magic ~version write]: the header, the lines [write] appends,
    the checksum trailer, as one exact-size string.

    [write] fills a scratch buffer owned by the calling domain and reused
    from one [seal] to the next; the body is copied once, into the
    result, and hashed there. A [seal] nested inside another's [write]
    gets a fresh buffer, an exception from [write] releases the scratch
    and propagates, and the scratch shrinks back after an image over
    1 MiB. [write] must not keep the buffer past its return. *)
val seal : magic:string -> version:int -> (Buffer.t -> unit) -> string

type cursor

(** A cursor over the body lines of a sealed image. Raises {!Corrupt} on
    a missing or mismatched trailer or another magic, then
    {!Unsupported_version} on another version. An image with no trailer
    whose complete header names [magic] at another version (written
    before its kind was sealed) is also {!Unsupported_version}. *)
val unseal : magic:string -> version:int -> string -> cursor

(** A cursor over every line of unsealed text. *)
val cursor : string -> cursor

val at_end : cursor -> bool

(** The next line. The readers below raise {!Corrupt} past the end. *)
val next : cursor -> string

(** [field cur key] — the rest of the next line after ["<key> "]. *)
val field : cursor -> string -> string

(** {!field} split on single spaces. *)
val expect : cursor -> string -> string list

(** [int_field what s] — [s] as an integer, [what] naming it in errors. *)
val int_field : string -> string -> int

(** The inverse of [String.escaped]. *)
val unescape : string -> string

(** {2 Journals} *)

(** Append-only record journals: a versioned header line followed by one
    line per record, each carrying an FNV-1a-64 checksum of its payload.

    Durability contract: {!append} is write + flush + fsync, so an
    acknowledged record survives process death. A crash mid-append leaves
    a torn tail; {!open_} and {!load} truncate it (a torn record was never
    acknowledged, so dropping it is correct). Any damage {e before} the
    tail — a checksum mismatch with intact records after it — is real
    corruption and raises {!Corrupt} rather than silently dropping
    acknowledged history.

    Payloads are single lines (no ['\n']); encode multi-line data with
    [String.escaped] or similar before appending. *)
module Journal : sig
  type t

  (** [open_ ?fsync ~kind path] — open [path] for appending, creating it
      (header only) when missing or empty, validating the header and
      repairing a torn tail otherwise. Returns the handle and the
      surviving payloads in append order, so the caller rebuilds its
      state in the same pass. [kind] names the journal's schema and is
      embedded in the header; opening with the wrong kind raises
      {!Corrupt}. *)
  val open_ : ?fsync:bool -> kind:string -> string -> t * string list

  (** [load ~kind path] — read-only scan: the good payloads in append
      order, plus the byte offset of the first torn byte (equal to the
      file size when the tail is clean). Raises {!Corrupt} on mid-file
      damage, [Sys_error] on a missing file. *)
  val load : kind:string -> string -> string list * int

  (** [append ?fsync ?crash_after t payload] — durably append one record
      (write, flush, fsync unless [fsync:false]). With [crash_after:n],
      raises {!Crashed} after [n] bytes of the record reached the file,
      leaving the torn tail a real crash would leave. Raises
      [Invalid_argument] if [payload] contains a newline. *)
  val append : ?fsync:bool -> ?crash_after:int -> t -> string -> unit

  (** [rewrite ?fsync ?crash_after t payloads] — atomically replace the
      whole journal with [payloads] (compaction). A crash leaves either
      the old journal or the new one, never a mixture. *)
  val rewrite : ?fsync:bool -> ?crash_after:int -> t -> string list -> unit

  (** [close t] — close the append channel. The handle may be reused;
      appending re-opens it. *)
  val close : t -> unit

  (** The journal's on-disk path. *)
  val path : t -> string
end
