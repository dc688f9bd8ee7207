(* mqdp_serve — the crash-tolerant multi-tenant streaming daemon over
   Mqdp.Serve: line protocol on stdin (default) or a concurrent TCP
   event loop (--port) multiplexing many clients through per-connection
   Mqdp.Transport state machines, durable shard snapshots (--state-dir),
   and bulk ingestion of TSV post files through the streaming reader
   (--replay).

   usage: mqdp_serve [--port N] [--shards N] [--jobs N]
                     [--max-profiles N] [--degrade-above N]
                     [--queue-capacity N] [--tick-steps N] [--deadline S]
                     [--checkpoint-every N] [--max-restarts N]
                     [--overload-budget N] [--seq-cache N]
                     [--max-sessions N] [--session-ttl S]
                     [--max-conns N] [--idle-timeout S] [--max-line N]
                     [--state-dir DIR] [--replay FILE]
                     [--telemetry] [--trace FILE]

   Protocol: one `<seq> VERB args` request per line; responses echo the
   sequence number and end with `<seq> OK ...` or `<seq> ERR <code> ...`
   (see Serve's interface, and the ops runbook in README.md). Over TCP
   each connection has its own session (sequence space); opening with
   `HELLO <id>` binds a named session that survives reconnects — and,
   with --state-dir, daemon restarts: every executed command is appended
   to a durable session journal before its response leaves the process,
   so a kill -9 between execution and acknowledgment cannot make a
   retried command run twice (DESIGN.md §21).

   With --state-dir, durability works in epochs: CHECKPOINT/DRAIN (and
   clean shutdown) write a fresh epoch of shard snapshot files, then one
   atomic manifest write (shard count, epoch, journal watermark) commits
   the whole set, then the journal compacts down to per-session
   watermark + response-cache records. On boot the manifest picks the
   snapshot epoch to load and the journal replays on top — re-executing
   only the commands newer than the snapshots. The daemon refuses to
   load state written under a different --shards.

   SIGTERM/SIGINT trigger a graceful drain: stop accepting, serve every
   fully-received request, flush, close, write final snapshots, exit 0. *)

let state_file dir i epoch = Filename.concat dir (Printf.sprintf "shard-%d.ep%d.snap" i epoch)
let manifest_file dir = Filename.concat dir "manifest"

(* The snapshot epoch the manifest last committed. Epoch 0 means "no
   snapshots yet": a fresh dir. *)
let current_epoch = ref 0

(* Boot refusals: state the daemon cannot load without losing or
   misplacing acknowledged work (a committed snapshot's commands are no
   longer in the compacted journal). *)
let refuse fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "mqdp_serve: %s\n%!" s;
      exit 2)
    fmt

let load_or_refuse what f =
  try f () with
  | Util.Fs.Corrupt why ->
    refuse
      "%s is corrupt (%s); booting without it would lose acknowledged work. \
       Restore it from a backup, or point --state-dir at a fresh directory."
      what why
  | Util.Fs.Unsupported_version { found; expected } ->
    refuse
      "%s is in format %s, but this build reads v%d. State dirs from before \
       the sealed-image format are not migrated: start with a fresh --state-dir."
      what found expected

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) ->
    Printf.eprintf "mqdp_serve: cannot create state dir %s: %s\n%!" dir
      (Unix.error_message e);
    exit 1

(* One durability point, crash-safe at every step boundary:
   1. write the next epoch's shard snapshot files (a crash here leaves
      orphan files the old manifest never references);
   2. one atomic manifest write commits the new epoch AND the journal
      watermark it covers — multiple snapshot files cannot be collectively
      atomic, so this single rename is the commit point;
   3. compact the journal (safe now: every journaled command is inside
      the committed snapshots; a crash mid-compaction leaves the old,
      larger journal, which replays to the same state);
   4. remove the previous epoch's files (pure space reclamation). *)
let persist serve = function
  | None -> ()
  | Some dir ->
    let next = !current_epoch + 1 in
    for i = 0 to Mqdp.Serve.shard_count serve - 1 do
      Util.Fs.atomic_write ~path:(state_file dir i next)
        (Mqdp.Serve.shard_snapshot serve i)
    done;
    let covered = Mqdp.Serve.journal_gsn serve in
    Util.Fs.atomic_write ~path:(manifest_file dir)
      (Mqdp.Serve.manifest ~extra:[ ("epoch", next); ("journal", covered) ] serve);
    Mqdp.Serve.compact_journal serve;
    let old = !current_epoch in
    current_epoch := next;
    for i = 0 to Mqdp.Serve.shard_count serve - 1 do
      Util.Fs.remove_if_exists (state_file dir i old)
    done

(* Returns the (epoch, covered-journal-watermark) pair the manifest
   committed; writes a fresh epoch-0 manifest into an empty dir. Loading
   under the wrong --shards would re-hash profile names onto other shards
   and orphan their durable state, so that refuses too. *)
let check_manifest serve dir =
  let path = manifest_file dir in
  let shards = Mqdp.Serve.shard_count serve in
  if not (Sys.file_exists path) then begin
    Util.Fs.atomic_write ~path (Mqdp.Serve.manifest ~extra:[ ("epoch", 0); ("journal", 0) ] serve);
    (0, 0)
  end
  else
    let fields =
      load_or_refuse ("manifest " ^ path) (fun () -> Mqdp.Serve.parse_manifest (Util.Fs.read path))
    in
    let field k =
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> refuse "manifest %s has no %s= line" path k
    in
    let n = field "shards" in
    if n <> shards then
      refuse
        "state dir %s was written with --shards %d, but this daemon is running \
         with --shards %d.\nLoading would misplace every profile whose name \
         hashes to a different shard. Re-run with --shards %d, or point \
         --state-dir at a fresh directory."
        dir n shards n;
    (field "epoch", field "journal")

let load_state serve = function
  | None -> ()
  | Some dir ->
    (* Stale temp siblings are debris of a writer killed mid-write; no
       writer is live yet, so sweeping them is safe exactly here. *)
    let swept = Util.Fs.sweep_temps dir in
    if swept > 0 then
      Printf.eprintf "mqdp_serve: swept %d stale temp file(s) from %s\n%!" swept
        dir;
    let epoch, covered = check_manifest serve dir in
    current_epoch := epoch;
    for i = 0 to Mqdp.Serve.shard_count serve - 1 do
      let path = state_file dir i epoch in
      if Sys.file_exists path then begin
        load_or_refuse
          (Printf.sprintf "shard %d snapshot %s" i path)
          (fun () -> Mqdp.Serve.load_shard serve i (Util.Fs.read path));
        Printf.eprintf "mqdp_serve: restored shard %d from %s\n%!" i path
      end
    done;
    (* Journal replay: rebuild session watermarks + response caches, and
       redo the commands newer than the snapshots just loaded. *)
    load_or_refuse
      ("session journal " ^ Filename.concat dir "sessions.journal")
      (fun () -> Mqdp.Serve.attach_journal serve ~dir ~covered);
    if Mqdp.Serve.journal_gsn serve > covered then
      Printf.eprintf "mqdp_serve: replayed session journal (%d command(s) redone)\n%!"
        (Mqdp.Serve.journal_gsn serve - covered)

let serve_channel serve state_dir ic oc =
  try
    while true do
      let line = input_line ic in
      List.iter (fun r -> output_string oc (r ^ "\n")) (Mqdp.Serve.exec serve line);
      flush oc;
      (* Durability points become durable the moment the client asked for
         them, not at shutdown: a kill between CHECKPOINT/DRAIN and exit
         must not lose them. *)
      if Mqdp.Serve.is_durability_point_line line then persist serve state_dir
    done
  with End_of_file -> ()

let replay serve path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* Number above the default session's recovered watermark: a journal
         replay may already have executed sequences a previous run's
         replay or stdin client issued. *)
      let seq =
        ref (Mqdp.Serve.session_seq (Mqdp.Serve.default_session serve))
      in
      let exec fmt =
        Printf.ksprintf
          (fun cmd ->
            incr seq;
            ignore (Mqdp.Serve.exec serve (Printf.sprintf "%d %s" !seq cmd)))
          fmt
      in
      let fed = ref 0 in
      let skipped =
        Workload.Post_io.iter_channel ~lenient:true ic ~f:(fun p ->
            exec "FEED %d %.17g %s" p.Mqdp.Post.id p.Mqdp.Post.value
              (match Mqdp.Label_set.to_list p.Mqdp.Post.labels with
              | [] -> "-"
              | ls -> String.concat "," (List.map string_of_int ls));
            incr fed;
            if !fed mod 256 = 0 then exec "TICK")
      in
      exec "TICK";
      Printf.eprintf
        "mqdp_serve: replayed %d posts from %s (%d skipped); next sequence %d\n%!"
        !fed path skipped (!seq + 1);
      !seq)

let tcp_loop serve state_dir ~port ~server_config =
  let server = Net.Server.create ~config:server_config ~port serve in
  let request_drain _signal = Net.Server.drain server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_drain);
  Printf.eprintf
    "mqdp_serve: listening on port %d (max %d connections, idle timeout %s)\n%!"
    (Net.Server.port server) server_config.Net.Server.max_connections
    (match server_config.Net.Server.transport.Mqdp.Transport.idle_timeout with
    | None -> "off"
    | Some s -> Printf.sprintf "%gs" s);
  Net.Server.run ~on_checkpoint:(fun () -> persist serve state_dir) server;
  let s = Net.Server.stats server in
  Printf.eprintf
    "mqdp_serve: drained (%d requests over %d connections; shed %d, idle %d, \
     oversized %d, reset %d)\n%!"
    s.Net.Server.requests s.Net.Server.accepted s.Net.Server.shed
    s.Net.Server.closed_idle s.Net.Server.closed_too_long s.Net.Server.closed_reset

let () =
  (* A client vanishing mid-response must cost a write error on its
     connection, never the process — also covers the stdin transport when
     the driving pipe closes early. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config = ref Mqdp.Serve.default_config in
  let port = ref 0 in
  let max_conns = ref Net.Server.default_config.Net.Server.max_connections in
  let idle_timeout =
    ref
      (match Mqdp.Transport.default_config.Mqdp.Transport.idle_timeout with
      | Some s -> s
      | None -> 0.)
  in
  let max_line = ref Mqdp.Transport.default_config.Mqdp.Transport.max_line in
  let state_dir = ref None in
  let replay_file = ref None in
  let trace_file = ref None in
  let set f = Arg.Int (fun v -> config := f !config v) in
  let args =
    [
      ("--port", Arg.Set_int port, "N  listen on TCP port N (default: stdin)");
      ("--shards", set (fun c v -> { c with Mqdp.Serve.shards = v }), "N  failure domains");
      ("--jobs", set (fun c v -> { c with Mqdp.Serve.jobs = v }), "N  pool width for TICK");
      ( "--max-profiles",
        set (fun c v -> { c with Mqdp.Serve.max_profiles = v }),
        "N  hard admission ceiling" );
      ( "--degrade-above",
        set (fun c v -> { c with Mqdp.Serve.degrade_above = v }),
        "N  admit degraded beyond this" );
      ( "--queue-capacity",
        set (fun c v -> { c with Mqdp.Serve.queue_capacity = v }),
        "N  per-shard pending-post bound" );
      ( "--tick-steps",
        set (fun c v -> { c with Mqdp.Serve.tick_steps = Some v }),
        "N  per-shard step budget per TICK" );
      ( "--deadline",
        Arg.Float
          (fun v -> config := { !config with Mqdp.Serve.request_deadline = Some v }),
        "S  per-request deadline, seconds" );
      ( "--checkpoint-every",
        set (fun c v -> { c with Mqdp.Serve.checkpoint_every = v }),
        "N  per-profile auto-checkpoint period" );
      ( "--max-restarts",
        set (fun c v -> { c with Mqdp.Serve.max_restarts = v }),
        "N  profile crashes before quarantine" );
      ( "--overload-budget",
        set (fun c v -> { c with Mqdp.Serve.overload_budget = Some v }),
        "N  feed degradation threshold" );
      ( "--seq-cache",
        set (fun c v -> { c with Mqdp.Serve.seq_cache = v }),
        "N  retried-response window" );
      ( "--max-sessions",
        set (fun c v -> { c with Mqdp.Serve.max_sessions = v }),
        "N  named-session ceiling (LRU eviction beyond it)" );
      ( "--session-ttl",
        Arg.Float
          (fun v -> config := { !config with Mqdp.Serve.session_ttl = Some v }),
        "S  evict named sessions idle this long" );
      ( "--max-conns",
        Arg.Set_int max_conns,
        "N  concurrent-connection ceiling (beyond it: 0 ERR capacity)" );
      ( "--idle-timeout",
        Arg.Set_float idle_timeout,
        "S  close connections idle this long (0: never)" );
      ( "--max-line",
        Arg.Set_int max_line,
        "N  request-framing cap, bytes (0 ERR line-too-long beyond it)" );
      ( "--state-dir",
        Arg.String (fun d -> state_dir := Some d),
        "DIR  durable shard snapshots" );
      ( "--replay",
        Arg.String (fun f -> replay_file := Some f),
        "FILE  bulk-feed a TSV post file at startup" );
      ( "--telemetry",
        Arg.Unit (fun () -> Util.Telemetry.enable ()),
        "  enable metrics (STATS reports them)" );
      ( "--trace",
        Arg.String (fun f -> trace_file := Some f),
        "FILE  write a Chrome-trace span log" );
    ]
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "mqdp_serve [options]";
  (match !trace_file with
  | None -> ()
  | Some f ->
    Util.Telemetry.enable ();
    Util.Telemetry.set_sink (Util.Telemetry.Trace.to_channel (open_out f)));
  let serve = Mqdp.Serve.create !config in
  Option.iter ensure_dir !state_dir;
  load_state serve !state_dir;
  ignore (Option.map (replay serve) !replay_file);
  (if !port > 0 then begin
     let transport =
       {
         Mqdp.Transport.default_config with
         Mqdp.Transport.max_line = !max_line;
         idle_timeout = (if !idle_timeout <= 0. then None else Some !idle_timeout);
       }
     in
     let server_config =
       { Net.Server.default_config with Net.Server.max_connections = !max_conns; transport }
     in
     tcp_loop serve !state_dir ~port:!port ~server_config
   end
   else serve_channel serve !state_dir stdin stdout);
  (* Final durability point: exit snapshots hold everything, and the
     compaction inside [persist] drops the redo records so the next boot
     does not re-execute commands the snapshots already contain. *)
  persist serve !state_dir;
  Mqdp.Serve.shutdown serve
