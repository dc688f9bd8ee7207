(** The multi-tenant serving core: a sans-IO line-protocol engine hosting
    thousands of {!Profile}s hashed onto fixed {!Shard}s, driven by a
    {!Util.Pool} for parallel ticks. [bin/mqdp_serve] wraps it in
    stdin/TCP transport; the fuzzer and tests drive {!exec} directly.

    {2 Wire protocol}

    One request per line: [<seq> VERB args...]; one or more response
    lines, each echoing [<seq>], the last being [<seq> OK ...] or
    [<seq> ERR <code> <message>]. Sequence numbers must be strictly
    increasing per {e session}; the last [seq_cache] responses are kept
    per session, so a client that times out retries the {e same} line
    verbatim and receives the cached response — commands are idempotent
    under retry (a retried FEED does not deliver twice). A sequence
    number below the watermark and out of cache is refused with
    [ERR stale-seq].

    A session is one client's retry window. {!exec} runs on the engine's
    default session (the stdin transport, the replay loader, and all
    pre-existing callers). The concurrent transport gives every
    connection its own anonymous session ({!new_session}), or — when the
    client opens with [HELLO <id>] — a named session ({!session}) that
    survives reconnects, so a client whose connection was reset can
    reconnect, re-send [HELLO], and retry its last line verbatim with the
    idempotency guarantee intact.

    Named sessions and the default session are additionally {e durable}
    when a journal is attached ({!attach_journal}): every fresh execution
    appends a checksummed [(gsn, id, seq, line, response)] record before
    the response reaches the transport, and a rebooted daemon replays the
    journal so watermarks and response caches — and, via redo of the
    commands newer than the shard snapshots, the engine state they
    acknowledged — survive process death (DESIGN.md §21). Anonymous
    sessions stay memory-only by design: with no identity there is
    nothing for a reconnecting client to rebind to.

    The named-session table is bounded: sessions idle past [session_ttl]
    are swept, and past [max_sessions] the least-recently-used is evicted
    (gauge [serve.sessions]). An evicted or expired session that returns
    starts a fresh sequence space.

    Verbs:
    - [ADD <name> <lambda> <mode> <labels> [nowindow]] — admit a profile.
      [mode] is [instant], [delayed:<tau>] or [delayed+:<tau>]; [labels]
      is comma-separated ints. Over [degrade_above] profiles, admission
      degrades (forced instant, no window — [OK added degraded]); at
      [max_profiles], [ERR capacity].
    - [DEL <name>]
    - [FEED <id> <value> <labels>] — fan a post out to every subscribed
      profile (label-inverted index, deduplicated, delivered in name
      order). Replies [OK delivered=<n> shed=<m>]; shed posts (full shard
      queue, quarantined profile) are {e not} acknowledged.
    - [TICK] — drain pending posts on every shard, in parallel on the
      pool, each shard under its step budget. [OK applied=<n> backlog=<n>].
    - [REPORT <name>] — unreported emissions as [<seq> EMIT <eseq> <id>
      <time-hex>] lines, then [<seq> OK <count>].
    - [QUERY <name>] — solve the profile's live window via {!Supervisor}
      (GreedySC-rooted ladder, per-profile breaker, request budget).
      [OK rung=<rung> size=<n> cover=<ids>]; [ERR no-window] for
      windowless profiles.
    - [STATS] — one JSON line: serving counters plus the {!Util.Telemetry}
      snapshot.
    - [CHECKPOINT [name]], [DRAIN [name]] — refresh checkpoints / finish
      feeds (one profile or all).
    - [RESTORE <name>] — revive a quarantined profile via its recovery
      path.
    - [PING]

    Error codes: [parse], [unknown-profile], [duplicate-profile],
    [capacity], [quarantined], [deadline], [stale-seq], [no-window]. *)

type config = {
  shards : int;
  jobs : int;  (** pool width for parallel ticks *)
  max_profiles : int;  (** hard admission ceiling: [ERR capacity] *)
  degrade_above : int;  (** soft ceiling: admit degraded beyond this *)
  queue_capacity : int;  (** per-shard acknowledged-post bound *)
  tick_steps : int option;  (** per-shard step budget per TICK *)
  request_deadline : float option;  (** seconds; [ERR deadline] past it *)
  checkpoint_every : int;  (** per-profile auto-checkpoint period *)
  max_restarts : int;  (** per-profile crashes before quarantine *)
  overload_budget : int option;  (** {!Feed} degradation threshold *)
  seq_cache : int;  (** retried-response window *)
  max_sessions : int;  (** named-session ceiling: LRU eviction past it *)
  session_ttl : float option;  (** idle seconds before a named session is swept *)
}

(** 4 shards, 1 job, 16384/12288 profile ceilings, 4096-post queues,
    unlimited ticks, no deadline, checkpoint every 64, 3 restarts, no
    overload budget, 64 cached responses, 4096 named sessions, no idle
    TTL. *)
val default_config : config

type t

(** Raises [Invalid_argument] on a non-positive [shards], [jobs],
    [max_profiles], [queue_capacity], [seq_cache], [max_sessions] or
    [session_ttl], or [degrade_above > max_profiles]. *)
val create : config -> t

val config : t -> config

(** [exec t line] — execute one request on the default session, returning
    the response lines in order. Never raises on bad input: malformed
    lines produce [ERR parse] responses. *)
val exec : t -> string -> string list

(** A per-client sequence space: watermark + retried-response cache. *)
type session

(** A fresh anonymous session (one per plain connection). *)
val new_session : t -> session

(** [session t ~id] — the named session for client [id], created on first
    use (sweeping expired sessions and evicting LRU past [max_sessions]
    first). Reconnecting clients that [HELLO id] land back on it. The
    empty id is reserved for the default session's durable identity; the
    transport rejects [HELLO] with an empty id. *)
val session : t -> id:string -> session

(** Named sessions currently registered. *)
val session_count : t -> int

(** [sweep_sessions ?now t] — drop every named session idle longer than
    [session_ttl] (no-op without a TTL); returns how many were dropped.
    [?now] overrides the monotonic clock reading, for tests. *)
val sweep_sessions : ?now:float -> t -> int

(** A session's sequence watermark — the highest seq it has executed.
    The transport reports it in the [HELLO] greeting so a reconnecting
    client can resume numbering above it. *)
val session_seq : session -> int

(** The engine's default session (stdin transport, {!exec}). *)
val default_session : t -> session

(** [exec_on t s line] — {!exec} against session [s]'s sequence space.
    All sessions share the engine state (profiles, shards, backlog);
    only the retry discipline is per-session. *)
val exec_on : t -> session -> string -> string list

(** [is_checkpoint_line line] — does [line] request a durable checkpoint
    ([<seq> CHECKPOINT ...])? Tokenization matches {!exec}'s (runs of
    whitespace collapse), so ["5  CHECKPOINT"] counts — the transport
    uses this to decide when to flush shard snapshots to disk. *)
val is_checkpoint_line : string -> bool

(** [is_durability_point_line line] — [CHECKPOINT] or [DRAIN]: the lines
    after which the daemon persists snapshots + manifest and compacts the
    session journal. *)
val is_durability_point_line : string -> bool

(** {2 Durable session journal}

    The journal lives at [<state-dir>/sessions.journal]: a versioned,
    per-record-checksummed {!Util.Fs.Journal} of executed commands
    ([C gsn id seq line response]) and compacted session snapshots
    ([W]/[R] records). [gsn] — the global sequence number — counts
    journaled commands monotonically across compactions and restarts;
    the daemon's manifest records the gsn its shard snapshots cover, and
    boot-time replay re-executes only the commands above it (installing
    every recorded response in the caches either way). See DESIGN.md §21
    for the crash-window analysis. *)

(** [attach_journal ?fsync t ~dir ~covered] — open (or create) the
    session journal under [dir], truncate a torn tail, replay the
    surviving records against [t] (redoing commands with gsn above
    [covered], the manifest's covered watermark), and start journaling
    subsequent fresh executions. Call exactly once, right after shard
    snapshots are restored and before serving. [fsync:false] trades
    power-loss durability for speed (benchmarks). Raises
    [Invalid_argument] when already attached, {!Util.Fs.Corrupt} on
    mid-file damage. *)
val attach_journal : ?fsync:bool -> t -> dir:string -> covered:int -> unit

(** Close the journal and stop journaling. Idempotent. *)
val detach_journal : t -> unit

val journal_attached : t -> bool

(** The gsn of the last journaled command — what the daemon writes into
    the manifest as [journal=] when its snapshots are durable. *)
val journal_gsn : t -> int

(** [compact_journal ?crash_after t] — atomically rewrite the journal as
    per-session [W]/[R] snapshots, dropping every [C] record. Only safe
    immediately after shard snapshots and a manifest covering
    {!journal_gsn} became durable — the daemon compacts exactly at
    durability points and clean shutdown. No-op when detached.
    [crash_after] injects a crash into the rewrite. *)
val compact_journal : ?crash_after:int -> t -> unit

(** [set_journal_crash_after t (Some n)] — arm a one-shot fault: the next
    journal append dies ({!Util.Fs.Crashed}) after [n] bytes, propagating
    out of {!exec}/{!exec_on} as a simulated process death mid-append. *)
val set_journal_crash_after : t -> int option -> unit

(** {2 State-dir manifest}

    A durable state directory records the shard count it was written
    under; loading it with a different [--shards] would silently orphan
    (or misplace) every profile whose name hashes elsewhere. The daemon
    writes {!manifest} next to the snapshots and refuses to boot when
    {!parse_manifest} disagrees with its configuration. *)

(** The manifest content for this engine: a sealed image
    ({!Util.Fs.seal}), kind [mqdp-serve state v2], of [key=value]
    integer lines, [shards=N] first. [extra] appends further lines — the
    daemon records [epoch] (which snapshot generation is current) and
    [journal] (the gsn those snapshots cover), making the
    multi-file snapshot set + journal watermark switch atomic: one
    {!Util.Fs.atomic_write} of the manifest commits all of it. *)
val manifest : ?extra:(string * int) list -> t -> string

(** [parse_manifest s] — every [key=value] line of a manifest, in order,
    [shards] (always present and positive) first. Raises
    {!Util.Fs.Corrupt} on damage and {!Util.Fs.Unsupported_version} on a
    manifest of another format, including the unsealed v1 ones. *)
val parse_manifest : string -> (string * int) list

(** The shard a profile name hashes to (FNV-1a-64 mod [shards]) — exposed
    so the fuzzer's single-threaded oracle can replicate placement and
    queue accounting. *)
val shard_of_name : shards:int -> string -> int

val shard_count : t -> int
val profile_count : t -> int

(** Total acknowledged-but-unapplied posts. *)
val backlog : t -> int

(** Shard restarts performed so far ({!restart_shard}). *)
val restarts : t -> int

(** [set_chaos t hook] installs (or clears) a crash-injection hook run
    before every post application during ticks. The hook runs on pool
    workers — it must be thread-safe. *)
val set_chaos : t -> (unit -> unit) option -> unit

(** [restart_shard t i] — snapshot shard [i] and rebuild it from the
    snapshot: a simulated process death and recovery. Acknowledged posts
    and unreported emissions survive by the {!Profile} durability
    contract. *)
val restart_shard : t -> int -> unit

(** Durable snapshot of shard [i] (for the daemon's [--state-dir]). *)
val shard_snapshot : t -> int -> string

(** Replace shard [i] with a restored snapshot (daemon startup). Raises
    what {!Shard.restore} raises. *)
val load_shard : t -> int -> string -> unit

(** Shut the pool down. The engine keeps working (ticks run inline). *)
val shutdown : t -> unit
