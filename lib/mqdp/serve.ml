type config = {
  shards : int;
  jobs : int;
  max_profiles : int;
  degrade_above : int;
  queue_capacity : int;
  tick_steps : int option;
  request_deadline : float option;
  checkpoint_every : int;
  max_restarts : int;
  overload_budget : int option;
  seq_cache : int;
  max_sessions : int;
  session_ttl : float option;
}

let default_config =
  {
    shards = 4;
    jobs = 1;
    max_profiles = 16384;
    degrade_above = 12288;
    queue_capacity = 4096;
    tick_steps = None;
    request_deadline = None;
    checkpoint_every = 64;
    max_restarts = 3;
    overload_budget = None;
    seq_cache = 64;
    max_sessions = 4096;
    session_ttl = None;
  }

(* One record per live profile, shared between the name table and the
   label-inverted index so fan-out deduplication is one stamp compare.
   Aliveness is physical equality with the name table's entry — a DEL or
   re-ADD replaces the entry, and stale index references filter out
   lazily. *)
type entry = {
  e_name : string;
  e_shard : int;
  mutable e_stamp : int;
}

(* One sequence space: the watermark and the retried-response cache. The
   engine owns a default session (stdin, replay, legacy callers); the
   concurrent transport creates one per connection or per HELLO id.
   [s_id] is the durable identity: [Some ""] is the default session,
   [Some id] a named (HELLO) session — both are journaled when a journal
   is attached — and [None] an anonymous per-connection session that dies
   with the process by design. [s_touched] drives idle-TTL/LRU
   eviction. *)
type session = {
  mutable last_seq : int;
  s_cache : (int * string list) option array;
  s_id : string option;
  mutable s_touched : float;
}

type t = {
  config : config;
  pool : Util.Pool.t;
  shards : Shard.t array;
  names : (string, entry) Hashtbl.t;
  by_label : (Label.t, entry list ref) Hashtbl.t;
  mutable stamp : int;
  default_session : session;
  sessions : (string, session) Hashtbl.t;
  mutable chaos : (unit -> unit) option;
  mutable restarts : int;
  (* Durable session journal (DESIGN.md §21). [gsn] is the global
     sequence number of the last journaled command — monotone across
     compactions and restarts, never reset, so a manifest's covered
     watermark stays comparable forever. [journal_crash] is the one-shot
     crash-injection byte count consumed by the next append. *)
  mutable journal : Util.Fs.Journal.t option;
  mutable journal_fsync : bool;
  mutable gsn : int;
  mutable journal_crash : int option;
}

let m_acked = Util.Telemetry.counter "serve.acked"
let m_shed = Util.Telemetry.counter "serve.shed"
let m_applied = Util.Telemetry.counter "serve.applied"
let m_restarts = Util.Telemetry.counter "serve.restarts"
let m_profiles = Util.Telemetry.gauge "serve.profiles"
let m_sessions = Util.Telemetry.gauge "serve.sessions"
let m_backlog = Util.Telemetry.gauge "serve.backlog"
let m_request = Util.Telemetry.histogram "serve.request"
let m_report = Util.Telemetry.histogram "serve.report"

let shard_of_name ~shards name =
  Int64.to_int (Int64.rem (Int64.logand (Util.Fs.fnv64 name) Int64.max_int)
                  (Int64.of_int shards))

let create (config : config) =
  if config.shards < 1 then invalid_arg "Serve.create: shards < 1";
  if config.jobs < 1 then invalid_arg "Serve.create: jobs < 1";
  if config.max_profiles < 1 then invalid_arg "Serve.create: max_profiles < 1";
  if config.degrade_above > config.max_profiles then
    invalid_arg "Serve.create: degrade_above > max_profiles";
  if config.queue_capacity < 1 then invalid_arg "Serve.create: queue_capacity < 1";
  if config.seq_cache < 1 then invalid_arg "Serve.create: seq_cache < 1";
  if config.max_sessions < 1 then invalid_arg "Serve.create: max_sessions < 1";
  (match config.session_ttl with
  | Some ttl when not (ttl > 0.) -> invalid_arg "Serve.create: session_ttl <= 0"
  | Some _ | None -> ());
  let shard_config =
    { Shard.queue_capacity = config.queue_capacity; tick_steps = config.tick_steps }
  in
  {
    config;
    pool = Util.Pool.create ~jobs:config.jobs;
    shards = Array.init config.shards (fun _ -> Shard.create shard_config);
    names = Hashtbl.create 1024;
    by_label = Hashtbl.create 256;
    stamp = 0;
    default_session =
      {
        last_seq = 0;
        s_cache = Array.make config.seq_cache None;
        s_id = Some "";
        s_touched = Util.Timer.now ();
      };
    sessions = Hashtbl.create 64;
    chaos = None;
    restarts = 0;
    journal = None;
    journal_fsync = true;
    gsn = 0;
    journal_crash = None;
  }

let config t = t.config
let shard_count t = Array.length t.shards
let profile_count t = Hashtbl.length t.names
let backlog t = Array.fold_left (fun acc s -> acc + Shard.backlog s) 0 t.shards
let restarts t = t.restarts
let set_chaos t hook = t.chaos <- hook

let shutdown t =
  (match t.journal with
  | Some j ->
    Util.Fs.Journal.close j;
    t.journal <- None
  | None -> ());
  Util.Pool.shutdown t.pool

let alive t entry =
  match Hashtbl.find_opt t.names entry.e_name with
  | Some e -> e == entry
  | None -> false

let find_profile t name =
  match Hashtbl.find_opt t.names name with
  | None -> None
  | Some entry -> Shard.find t.shards.(entry.e_shard) name

let index_entry t entry subscription =
  Label_set.iter
    (fun label ->
      match Hashtbl.find_opt t.by_label label with
      | Some r -> r := entry :: !r
      | None -> Hashtbl.add t.by_label label (ref [ entry ]))
    subscription

let restart_shard t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Serve.restart_shard: shard out of range";
  let snap = Shard.snapshot t.shards.(i) in
  t.shards.(i) <- Shard.restore snap;
  t.restarts <- t.restarts + 1;
  Util.Telemetry.incr m_restarts

let shard_snapshot t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Serve.shard_snapshot: shard out of range";
  Shard.snapshot t.shards.(i)

let load_shard t i snap =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Serve.load_shard: shard out of range";
  let shard = Shard.restore snap in
  (* Drop the name-table entries of the shard being replaced, then index
     the restored profile set; stale label-index references filter out
     lazily through the aliveness check. *)
  let stale =
    Hashtbl.fold (fun name e acc -> if e.e_shard = i then name :: acc else acc)
      t.names []
  in
  List.iter (Hashtbl.remove t.names) stale;
  t.shards.(i) <- shard;
  List.iter
    (fun profile ->
      let entry = { e_name = Profile.name profile; e_shard = i; e_stamp = 0 } in
      Hashtbl.replace t.names entry.e_name entry;
      index_entry t entry (Profile.subscription profile))
    (Shard.profiles shard)

(* {2 Wire protocol} *)

let ok seq fmt = Printf.ksprintf (fun s -> Printf.sprintf "%d OK %s" seq s) fmt

let err seq code fmt =
  Printf.ksprintf (fun s -> Printf.sprintf "%d ERR %s %s" seq code s) fmt

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

let parse_labels s =
  try Feed.labels_of_field s with Util.Fs.Corrupt _ -> bad "bad label list %S" s

let parse_float what s =
  match float_of_string_opt s with Some f -> f | None -> bad "bad %s %S" what s

let parse_int what s =
  match int_of_string_opt s with Some i -> i | None -> bad "bad %s %S" what s

let parse_mode s =
  match s with
  | "instant" -> Online.Instant
  | _ -> (
    let delayed prefix plus =
      let n = String.length prefix in
      if String.length s > n && String.sub s 0 n = prefix then
        Some (Online.Delayed { tau = parse_float "tau" (String.sub s n (String.length s - n)); plus })
      else None
    in
    (* delayed+: must match before delayed: — it is not a prefix of it. *)
    match delayed "delayed+:" true with
    | Some m -> m
    | None -> (
      match delayed "delayed:" false with
      | Some m -> m
      | None -> bad "bad mode %S" s))

let require_profile t name =
  match find_profile t name with
  | Some p -> p
  | None -> bad "@unknown-profile no such profile %S" name

(* Errors raised through [Bad_request] default to code [parse]; a leading
   ["@code "] overrides — saves threading the code through every helper. *)
let split_code msg =
  if String.length msg > 1 && msg.[0] = '@' then
    match String.index_opt msg ' ' with
    | Some i ->
      (String.sub msg 1 (i - 1), String.sub msg (i + 1) (String.length msg - i - 1))
    | None -> ("parse", msg)
  else ("parse", msg)

let handle_add t seq name lambda mode labels flags =
  if Hashtbl.mem t.names name then
    [ err seq "duplicate-profile" "profile %S already exists" name ]
  else begin
    let lambda = parse_float "lambda" lambda in
    if not (Float.is_finite lambda) || lambda < 0. then bad "bad lambda";
    let mode = parse_mode mode in
    let subscription = parse_labels labels in
    if Label_set.is_empty subscription then bad "empty subscription";
    let nowindow =
      match flags with
      | [] -> false
      | [ "nowindow" ] -> true
      | f :: _ -> bad "bad flag %S" f
    in
    if profile_count t >= t.config.max_profiles then
      [ err seq "capacity" "at %d profiles" t.config.max_profiles ]
    else begin
      let degrade = profile_count t >= t.config.degrade_above in
      let config =
        {
          Profile.lambda;
          mode = (if degrade then Online.Instant else mode);
          feed =
            { Feed.default_config with overload_budget = t.config.overload_budget };
          window = (not degrade) && not nowindow;
          checkpoint_every = t.config.checkpoint_every;
          max_restarts = t.config.max_restarts;
        }
      in
      let profile = Profile.create ~name ~subscription config in
      if degrade then Profile.mark_degraded profile;
      let shard = shard_of_name ~shards:t.config.shards name in
      Shard.add t.shards.(shard) profile;
      let entry = { e_name = name; e_shard = shard; e_stamp = 0 } in
      Hashtbl.replace t.names name entry;
      index_entry t entry subscription;
      [ (if degrade then ok seq "added degraded" else ok seq "added") ]
    end
  end

let handle_feed t seq id value labels =
  let post =
    try
      Post.make ~id:(parse_int "post id" id) ~value:(parse_float "value" value)
        ~labels:(parse_labels labels)
    with Invalid_argument m -> bad "%s" m
  in
  (* Fan out through the inverted index; the stamp deduplicates a post
     matching a profile on several labels. Matches deliver in name order
     so queue-full shedding is deterministic. *)
  t.stamp <- t.stamp + 1;
  let matches = ref [] in
  Label_set.iter
    (fun label ->
      match Hashtbl.find_opt t.by_label label with
      | None -> ()
      | Some r ->
        r := List.filter (alive t) !r;
        List.iter
          (fun e ->
            if e.e_stamp <> t.stamp then begin
              e.e_stamp <- t.stamp;
              matches := e :: !matches
            end)
          !r)
    post.Post.labels;
  let matches =
    List.sort (fun a b -> String.compare a.e_name b.e_name) !matches
  in
  let delivered = ref 0 and shed = ref 0 in
  List.iter
    (fun e ->
      match Shard.find t.shards.(e.e_shard) e.e_name with
      | None -> ()
      | Some profile ->
        let projected =
          Label_set.inter post.Post.labels (Profile.subscription profile)
        in
        if not (Label_set.is_empty projected) then begin
          let p =
            Post.make ~id:post.Post.id ~value:post.Post.value ~labels:projected
          in
          if Shard.offer t.shards.(e.e_shard) profile p then incr delivered
          else incr shed
        end)
    matches;
  Util.Telemetry.add m_acked !delivered;
  Util.Telemetry.add m_shed !shed;
  [ ok seq "delivered=%d shed=%d" !delivered !shed ]

let handle_tick t seq budget =
  let applied = Array.make (Array.length t.shards) 0 in
  let chaos = t.chaos in
  let deadline = Util.Budget.remaining budget in
  Util.Pool.parallel_for t.pool (Array.length t.shards) ~f:(fun i ->
      applied.(i) <- Shard.tick ?chaos ?deadline t.shards.(i));
  let total = Array.fold_left ( + ) 0 applied in
  Util.Telemetry.add m_applied total;
  [ ok seq "applied=%d backlog=%d" total (backlog t) ]

let handle_report t seq name =
  let profile = require_profile t name in
  let t0 = Util.Timer.now_ns () in
  let emissions = Profile.take_report profile in
  let lines =
    List.map
      (fun (eseq, e) ->
        Printf.sprintf "%d EMIT %d %d %s" seq eseq e.Online.post.Post.id
          (Feed.float_field e.Online.emit_time))
      emissions
  in
  Util.Telemetry.observe m_report (Util.Timer.elapsed_since t0);
  lines @ [ ok seq "%d" (List.length emissions) ]

let handle_query t seq name budget =
  let profile = require_profile t name in
  if Profile.quarantined profile then
    [ err seq "quarantined" "profile %S is quarantined" name ]
  else
    match Profile.window profile with
    | None -> [ err seq "no-window" "profile %S keeps no window" name ]
    | Some w ->
      let instance = Window_index.to_instance w in
      let lambda = Coverage.Fixed (Profile.config profile).Profile.lambda in
      let report =
        Supervisor.solve ~pool:t.pool ~budget ~breaker:(Profile.breaker profile)
          ~ladder:(Supervisor.ladder_from Solver.Greedy_sc) instance lambda
      in
      let ids =
        List.map
          (fun pos -> string_of_int (Instance.post instance pos).Post.id)
          report.Supervisor.cover
      in
      [
        ok seq "rung=%s size=%d cover=%s" report.Supervisor.answered_by
          report.Supervisor.size
          (match ids with [] -> "-" | _ -> String.concat "," ids);
      ]

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let handle_stats t seq =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
  let counters = Array.map Shard.counters t.shards in
  let total f = Array.fold_left (fun acc c -> acc + f c) 0 counters in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"profiles\":%d,\"backlog\":%d,\"acked\":%d,\"applied\":%d,\"shed\":%d,\
        \"crashes\":%d,\"quarantined\":%d,\"restarts\":%d,\"telemetry\":{"
       (profile_count t) (backlog t)
       (total (fun c -> c.Shard.acked))
       (total (fun c -> c.Shard.applied))
       (total (fun c -> c.Shard.shed))
       (sum Shard.crash_count) (sum Shard.quarantined_count) t.restarts);
  let first = ref true in
  let field name value =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b (Printf.sprintf "\"%s\":%s" (json_escape name) value)
  in
  List.iter
    (function
      | Util.Telemetry.Counter_entry (name, v) -> field name (string_of_int v)
      | Util.Telemetry.Gauge_entry (name, v) -> field name (string_of_int v)
      | Util.Telemetry.Histogram_entry (name, h) ->
        field name
          (Printf.sprintf
             "{\"count\":%d,\"sum\":%.6g,\"p50\":%.6g,\"p90\":%.6g,\"p99\":%.6g}"
             h.Util.Telemetry.h_count h.Util.Telemetry.h_sum
             h.Util.Telemetry.h_p50 h.Util.Telemetry.h_p90 h.Util.Telemetry.h_p99))
    (Util.Telemetry.snapshot ());
  Buffer.add_string b "}}";
  [ ok seq "%s" (Buffer.contents b) ]

let non_quarantined_profiles t =
  Array.to_list t.shards
  |> List.concat_map Shard.profiles
  |> List.filter (fun p -> not (Profile.quarantined p))

let handle_checkpoint t seq = function
  | Some name ->
    let profile = require_profile t name in
    if Profile.quarantined profile then
      [ err seq "quarantined" "profile %S is quarantined" name ]
    else begin
      Profile.checkpoint_now profile;
      [ ok seq "checkpointed=1" ]
    end
  | None ->
    let ps = non_quarantined_profiles t in
    List.iter Profile.checkpoint_now ps;
    [ ok seq "checkpointed=%d" (List.length ps) ]

let handle_drain t seq = function
  | Some name ->
    let profile = require_profile t name in
    if Profile.quarantined profile then
      [ err seq "quarantined" "profile %S is quarantined" name ]
    else begin
      Profile.drain profile;
      [ ok seq "drained=1" ]
    end
  | None ->
    let ps = non_quarantined_profiles t in
    List.iter Profile.drain ps;
    [ ok seq "drained=%d" (List.length ps) ]

let handle t seq tokens =
  let budget =
    match t.config.request_deadline with
    | None -> Util.Budget.unlimited
    | Some deadline -> Util.Budget.create ~deadline ()
  in
  match
    Util.Budget.check budget;
    (match tokens with
    | [ "PING" ] -> [ ok seq "pong" ]
    | "ADD" :: name :: lambda :: mode :: labels :: flags ->
      handle_add t seq name lambda mode labels flags
    | [ "DEL"; name ] ->
      let entry = Hashtbl.find_opt t.names name in
      (match entry with
      | None -> [ err seq "unknown-profile" "no such profile %S" name ]
      | Some e ->
        Hashtbl.remove t.names name;
        ignore (Shard.remove t.shards.(e.e_shard) name);
        [ ok seq "deleted" ])
    | [ "FEED"; id; value; labels ] -> handle_feed t seq id value labels
    | [ "TICK" ] -> handle_tick t seq budget
    | [ "REPORT"; name ] -> handle_report t seq name
    | [ "QUERY"; name ] -> handle_query t seq name budget
    | [ "STATS" ] -> handle_stats t seq
    | [ "CHECKPOINT" ] -> handle_checkpoint t seq None
    | [ "CHECKPOINT"; name ] -> handle_checkpoint t seq (Some name)
    | [ "DRAIN" ] -> handle_drain t seq None
    | [ "DRAIN"; name ] -> handle_drain t seq (Some name)
    | [ "RESTORE"; name ] ->
      let profile = require_profile t name in
      Profile.revive profile;
      [ ok seq "restored" ]
    | verb :: _ -> [ err seq "parse" "unknown or malformed command %S" verb ]
    | [] -> [ err seq "parse" "empty command" ])
  with
  | response -> response
  | exception Bad_request msg ->
    let code, msg = split_code msg in
    [ err seq code "%s" msg ]
  | exception Util.Budget.Exhausted _ ->
    [ err seq "deadline" "request deadline exceeded" ]

let make_session t s_id =
  {
    last_seq = 0;
    s_cache = Array.make t.config.seq_cache None;
    s_id;
    s_touched = Util.Timer.now ();
  }

let new_session t = make_session t None
let set_sessions_gauge t = Util.Telemetry.set m_sessions (Hashtbl.length t.sessions)

(* Idle-TTL eviction: drop every named session untouched for longer than
   [session_ttl]. Runs on every named-session creation and is exposed for
   operators/tests; [?now] pins the clock so tests need not sleep. *)
let sweep_sessions ?now t =
  match t.config.session_ttl with
  | None -> 0
  | Some ttl ->
    let now = match now with Some n -> n | None -> Util.Timer.now () in
    let stale =
      Hashtbl.fold
        (fun id s acc -> if now -. s.s_touched > ttl then id :: acc else acc)
        t.sessions []
    in
    List.iter (Hashtbl.remove t.sessions) stale;
    set_sessions_gauge t;
    List.length stale

(* LRU eviction: the named-session table never exceeds [max_sessions], so
   a daemon facing an unbounded stream of fresh HELLO ids stays bounded
   instead of leaking a session + seq cache per id forever. An evicted
   session that returns starts a fresh sequence space — its retries
   beyond the cache answer [stale-seq], the documented contract. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun id s acc ->
        match acc with
        | Some (_, best) when best.s_touched <= s.s_touched -> acc
        | _ -> Some (id, s))
      t.sessions None
  in
  match victim with
  | Some (id, _) -> Hashtbl.remove t.sessions id
  | None -> ()

let session t ~id =
  match Hashtbl.find_opt t.sessions id with
  | Some s ->
    s.s_touched <- Util.Timer.now ();
    s
  | None ->
    ignore (sweep_sessions t);
    while Hashtbl.length t.sessions >= t.config.max_sessions do
      evict_lru t
    done;
    let s = make_session t (Some id) in
    Hashtbl.add t.sessions id s;
    set_sessions_gauge t;
    s

let session_count t = Hashtbl.length t.sessions
let session_seq s = s.last_seq
let default_session t = t.default_session

let cache_find session seq =
  let slot = seq mod Array.length session.s_cache in
  match session.s_cache.(slot) with
  | Some (s, response) when s = seq -> Some response
  | _ -> None

let cache_store session seq response =
  session.s_cache.(seq mod Array.length session.s_cache) <- Some (seq, response)

(* Tokenization shared by [exec_on] and [is_checkpoint_line]: runs of
   spaces collapse, so "5  CHECKPOINT" parses the same everywhere. *)
let tokenize line =
  String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")

let is_checkpoint_line line =
  match tokenize line with
  | _seq :: "CHECKPOINT" :: _ -> true
  | _ -> false

(* The durability points: lines after which the daemon persists shard
   snapshots + manifest and compacts the session journal. DRAIN counts
   because compaction on DRAIN is part of the journal's bounded-size
   contract, and compacting is only safe at a fresh durable state. *)
let is_durability_point_line line =
  match tokenize line with
  | _seq :: ("CHECKPOINT" | "DRAIN") :: _ -> true
  | _ -> false

(* {2 Session journal records}

   Payloads are tab-separated [String.escaped] fields (escaping removes
   raw tabs and newlines), checksummed and framed by [Util.Fs.Journal]:

   - [C gsn id seq line resp...] — one executed command: the request line
     for redo and the response it produced for verbatim retry replay.
   - [W id last_seq] — a session watermark (written by compaction).
   - [R id seq resp...] — one cached response (written by compaction). *)

let enc_fields fields = String.concat "\t" (List.map String.escaped fields)
let dec_fields payload = List.map Util.Fs.unescape (String.split_on_char '\t' payload)

(* Append the C record for a freshly executed command. Only sessions with
   a durable identity journal; anonymous per-connection sessions die with
   the process by design. A [Util.Fs.Crashed] raised here propagates to
   the driver: the command executed but was never durably acknowledged,
   which is exactly the window crash injection wants to probe. *)
let journal_command t session seq line response =
  match (t.journal, session.s_id) with
  | None, _ | _, None -> ()
  | Some j, Some id ->
    t.gsn <- t.gsn + 1;
    let payload =
      enc_fields
        ("C" :: string_of_int t.gsn :: id :: string_of_int seq :: line
       :: response)
    in
    let crash = t.journal_crash in
    t.journal_crash <- None;
    Util.Fs.Journal.append ~fsync:t.journal_fsync ?crash_after:crash j payload

let exec_on t session line =
  let t0 = Util.Timer.now_ns () in
  session.s_touched <- Util.Timer.now ();
  let response =
    match tokenize line with
    | [] -> [ "ERR parse empty line" ]
    | seq_tok :: rest -> (
      match int_of_string_opt seq_tok with
      | None -> [ "ERR parse bad sequence number" ]
      | Some seq when seq <= 0 -> [ "ERR parse bad sequence number" ]
      | Some seq ->
        if seq <= session.last_seq then
          (* A retry replays its cached response verbatim — the command
             does not run again, so retried FEEDs cannot double-deliver.
             Nothing is journaled either: the journal only carries fresh
             executions, so its C records stay strictly increasing. *)
          match cache_find session seq with
          | Some response -> response
          | None ->
            [ err seq "stale-seq" "sequence %d below watermark %d" seq
                session.last_seq ]
        else begin
          let response = handle t seq rest in
          session.last_seq <- seq;
          cache_store session seq response;
          (* After execution, before the transport sees the response: a
             crash in this window leaves the command either journaled
             (retry replays the cache) or torn/absent (retry re-executes
             against pre-command shard state) — exactly once both ways. *)
          journal_command t session seq line response;
          response
        end)
  in
  if Util.Telemetry.enabled () then begin
    Util.Telemetry.observe_ns m_request
      (Int64.sub (Util.Timer.now_ns ()) t0);
    Util.Telemetry.set m_profiles (profile_count t);
    Util.Telemetry.set m_backlog (backlog t)
  end;
  response

let exec t line = exec_on t t.default_session line

(* {2 Durable session journal} *)

let journal_file = "sessions.journal"
let journal_kind = "serve-sessions"
let journal_attached t = t.journal <> None
let journal_gsn t = t.gsn
let set_journal_crash_after t n = t.journal_crash <- n

(* The default session's durable identity is the empty id — the transport
   rejects [HELLO] with an empty id, so it can never collide with a named
   session. *)
let session_of_id t id = if id = "" then t.default_session else session t ~id

let apply_record t ~covered payload =
  match dec_fields payload with
  | [ "W"; id; last ] ->
    let s = session_of_id t id in
    s.last_seq <- max s.last_seq (Util.Fs.int_field "watermark" last)
  | "R" :: id :: seq :: resp ->
    let s = session_of_id t id in
    let seq = Util.Fs.int_field "seq" seq in
    cache_store s seq resp;
    s.last_seq <- max s.last_seq seq
  | "C" :: gsn :: id :: seq :: line :: resp ->
    let gsn = Util.Fs.int_field "gsn" gsn and seq = Util.Fs.int_field "seq" seq in
    let s = session_of_id t id in
    (* Redo: re-execute only the commands whose effects postdate the shard
       snapshots this boot restored from ([gsn > covered]); commands at or
       below the covered watermark are already inside the snapshots, and
       re-running them would be exactly the double execution this journal
       exists to prevent. Either way the *recorded* response wins the
       cache slot: a replayed STATS/QUERY may legitimately diverge, and
       retries must see the bytes the original execution produced. *)
    if gsn > covered then ignore (exec_on t s line);
    s.last_seq <- max s.last_seq seq;
    cache_store s seq resp;
    t.gsn <- max t.gsn gsn
  | _ -> Util.Fs.corrupt "unrecognized session journal record %S" payload

let attach_journal ?(fsync = true) t ~dir ~covered =
  if journal_attached t then invalid_arg "Serve.attach_journal: already attached";
  let path = Filename.concat dir journal_file in
  (* [open_] validates the header, truncates a torn tail (a crash
     mid-append — that record was never acknowledged) and returns the
     surviving payloads; replay happens with [t.journal] still unset so
     redone commands are not re-journaled. *)
  let j, payloads = Util.Fs.Journal.open_ ~fsync ~kind:journal_kind path in
  t.journal_fsync <- fsync;
  List.iter (apply_record t ~covered) payloads;
  t.journal <- Some j;
  t.gsn <- max t.gsn covered;
  set_sessions_gauge t

let detach_journal t =
  match t.journal with
  | None -> ()
  | Some j ->
    Util.Fs.Journal.close j;
    t.journal <- None

(* Rewrite the journal as pure session snapshots: one W watermark and the
   live R cache entries per durable session, no C records. Only safe
   immediately after the shard snapshots + manifest covering every
   journaled command became durable — dropping a C record whose effects
   are not in a snapshot would lose it. The daemon therefore compacts
   exactly at durability points ({!is_durability_point_line}) and at
   clean shutdown. Keeps the journal bounded by the per-session response
   cache, per the §21 contract. *)
let compact_journal ?crash_after t =
  match t.journal with
  | None -> ()
  | Some j ->
    let session_records id s acc =
      let acc = enc_fields [ "W"; id; string_of_int s.last_seq ] :: acc in
      Array.fold_left
        (fun acc slot ->
          match slot with
          | Some (seq, resp) ->
            enc_fields ("R" :: id :: string_of_int seq :: resp) :: acc
          | None -> acc)
        acc s.s_cache
    in
    let ids =
      Hashtbl.fold (fun id _ acc -> id :: acc) t.sessions []
      |> List.sort String.compare
    in
    let payloads =
      List.fold_left
        (fun acc id -> session_records id (Hashtbl.find t.sessions id) acc)
        (session_records "" t.default_session [])
        ids
    in
    let crash =
      match crash_after with Some _ -> crash_after | None -> t.journal_crash
    in
    t.journal_crash <- None;
    Util.Fs.Journal.rewrite ~fsync:t.journal_fsync ?crash_after:crash j
      (List.rev payloads)

(* {2 State-dir manifest} *)

let manifest_magic = "mqdp-serve state"
let manifest_version = 2

let manifest ?(extra = []) t =
  Util.Fs.seal ~magic:manifest_magic ~version:manifest_version @@ fun b ->
  List.iter (fun (k, v) -> Util.Fs.line b "%s=%d" k v) (("shards", Array.length t.shards) :: extra)

let parse_manifest s =
  let cur = Util.Fs.unseal ~magic:manifest_magic ~version:manifest_version s in
  let rec fields acc =
    if Util.Fs.at_end cur then List.rev acc
    else
      match String.split_on_char '=' (Util.Fs.next cur) with
      | [ k; v ] -> fields ((k, Util.Fs.int_field k v) :: acc)
      | _ -> Util.Fs.corrupt "manifest line is not key=value"
  in
  let fields = fields [] in
  match List.assoc_opt "shards" fields with
  | Some n when n >= 1 -> fields
  | Some _ | None -> Util.Fs.corrupt "manifest lists no valid shard count"
