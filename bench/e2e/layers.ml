(* Per-layer attribution for the traced run (--trace 1).

   The daemon carries no spans of its own yet, so each layer is timed by
   replaying, in this process, exactly what that layer received during
   the run, through the layer's public entry points:

   - transport: the bytes the generator wrote, per connection, through
     Mqdp.Transport feed/next/respond/output/wrote;
   - serve: every request line through Serve.exec_on (plus, for durable,
     the daemon's persist step at CHECKPOINT and DRAIN);
   - shard, profile, feed, online, window_index: each profile's input
     stream (the FEED posts whose labels meet its subscription, projected
     onto it, in FEED order) through Shard.offer/tick, Profile.offer/
     process, Feed.push/checkpoint, Online.push and Window_index
     expire_before/try_push, at the same TICKs; QUERYs through
     Window_index.to_instance and Supervisor.solve;
   - journal: the payloads Journal.load reads back from the serve pass,
     appended with fsync, and the compactions rewritten.

   Each pass times a layer together with the layers below it, so a
   layer's self time is its pass time minus the pass time of the layer it
   calls. Where a pass has to reproduce a policy of a layer it does not
   call (Profile's checkpoint cadence, Feed's reorder buffer, Online's
   window expiry, Serve's fan-out), the run checks the reproduction
   against the real layer and fails when they differ. Times are kept per
   request; spans (with the request's index as "req" and the calling
   layer as "parent") are kept in memory and written as Chrome-trace
   JSONL at the end. *)

module W = Workload
module L = Loadgen

let now_ns = Util.Timer.now_ns
let ns_between a b = Int64.to_float (Int64.sub b a)

(* {2 Spans} *)

type span = { name : string; start : int64; dur : int64; req : int; parent : string }

let spans : span list ref = ref []

(* Record a span of request [r]; returns its length in ns. The trace
   keeps the measured phases' requests, FEEDs sampled 1 in 16 (a FEED's
   spans are all kept or all dropped, so a request's spans still share its
   id): every FEED in the trace would make it hundreds of megabytes, and
   the spans held in memory would slow the passes that follow. *)
let traced (r : W.req) =
  W.measured r && match r.kind with W.Feed _ -> r.index mod 16 = 0 | _ -> true

let record ~name ~parent (r : W.req) start stop =
  if traced r then
    spans := { name; start; dur = Int64.sub stop start; req = r.index; parent } :: !spans;
  ns_between start stop

(* Close a span opened at [start]. *)
let close ~name ~parent r start = record ~name ~parent r start (now_ns ())

(* {2 Per-request times, in ns, by script index} *)

type acc = {
  serve : float array;
  persist : float array;
  frame : float array;
  output : float array;
  shard : float array;  (** Shard.offer at FEED, Shard.tick at TICK *)
  report : float array;  (** Profile.take_report *)
  ckpt : float array;  (** Profile.checkpoint_now of every profile at CHECKPOINT *)
  qinst : float array;  (** Window_index.to_instance *)
  qsolve : float array;  (** Supervisor.solve *)
  profile : float array;  (** Profile.offer at FEED, Profile.process at TICK *)
  feed : float array;
  fckpt : float array;  (** Feed.checkpoint inside [feed] *)
  online : float array;
  window : float array;
  relay : float array;  (** the reorder-buffer emulation the two above share *)
  append : float array;
  rewrite : float array;
}

let make_acc n =
  let z () = Array.make n 0. in
  {
    serve = z ();
    persist = z ();
    frame = z ();
    output = z ();
    shard = z ();
    report = z ();
    ckpt = z ();
    qinst = z ();
    qsolve = z ();
    profile = z ();
    feed = z ();
    fckpt = z ();
    online = z ();
    window = z ();
    relay = z ();
    append = z ();
    rewrite = z ();
  }

(* Counts over the measured phases. *)
type counts = {
  mutable delivered : int;  (** every phase: Shard.offer calls that succeeded *)
  mutable offers : int;
  mutable ticks : float list;  (** shard pass, ns per TICK *)
  mutable backlog_max : int;
  mutable applied : int;
  mutable emissions : int;
  mutable feed_pushes : int;
  mutable ckpt_bytes : int;
  mutable ckpt_count : int;
  mutable online_pushes : int;
  mutable online_emits : int;
  mutable pending_max : int;
  mutable live_posts : float;
  mutable live_pairs : float;
  mutable live_samples : int;
  mutable queries : int;
  mutable greedy_answers : int;
  mutable cover_sum : int;
  mutable compile_ns : float;
  mutable greedy_ns : float;
  mutable snapshot_ns : float;
  mutable snapshot_bytes : int;
  mutable restore_ns : float;
  mutable appends : int;
  mutable append_bytes : int;
  mutable query_mismatch : int;
  (* What the real layers did, against which the passes that emulate a
     layer's policy are checked (see [emulation_problems]). *)
  mutable feed_releases : int;  (** Feed's released counter, over the measured TICKs *)
  mutable feed_emits : int;  (** emissions Feed.push returned at those TICKs *)
  mutable feed_live_posts : float;  (** Feed's own windows, summed as [live_posts] is *)
  mutable feed_live_pairs : float;
  mutable journal_at_drain : int array;  (** each Profile's posts since its checkpoint, at DRAIN *)
  mutable cadence_mismatch : int;  (** profiles whose feed-pass checkpoints fell elsewhere *)
}

let make_counts () =
  {
    delivered = 0;
    offers = 0;
    ticks = [];
    backlog_max = 0;
    applied = 0;
    emissions = 0;
    feed_pushes = 0;
    ckpt_bytes = 0;
    ckpt_count = 0;
    online_pushes = 0;
    online_emits = 0;
    pending_max = 0;
    live_posts = 0.;
    live_pairs = 0.;
    live_samples = 0;
    queries = 0;
    greedy_answers = 0;
    cover_sum = 0;
    compile_ns = 0.;
    greedy_ns = 0.;
    snapshot_ns = 0.;
    snapshot_bytes = 0;
    restore_ns = 0.;
    appends = 0;
    append_bytes = 0;
    query_mismatch = 0;
    feed_releases = 0;
    feed_emits = 0;
    feed_live_posts = 0.;
    feed_live_pairs = 0.;
    journal_at_drain = [||];
    cadence_mismatch = 0;
  }

(* {2 Walking the script} *)

let shards = Inproc.config.Mqdp.Serve.shards

let shard_index (w : W.t) =
  Array.map (fun (p : W.profile) -> Mqdp.Serve.shard_of_name ~shards p.name) w.profiles

(* The order a TICK reaches profiles: shard by shard, names ascending. *)
let tick_order (w : W.t) =
  let shard = shard_index w in
  let idx = Array.init (Array.length w.profiles) (fun i -> i) in
  Array.stable_sort (fun a b -> Int.compare shard.(a) shard.(b)) idx;
  idx

(* A profile as Serve's ADD builds it. *)
let feed_config = { Mqdp.Feed.default_config with overload_budget = Inproc.config.overload_budget }

let make_profile (p : W.profile) =
  Mqdp.Profile.create ~name:p.name ~subscription:p.subscription
    {
      Mqdp.Profile.lambda = p.lambda;
      mode = p.mode;
      feed = feed_config;
      window = p.window;
      checkpoint_every = Inproc.config.checkpoint_every;
      max_restarts = Inproc.config.max_restarts;
    }

(* One pass over the script; FEEDs arrive with their deliveries. *)
let walk (w : W.t) ~feed ~tick ?(report = fun _ _ -> ()) ?(query = fun _ _ -> ())
    ?(checkpoint = fun _ -> ()) ?(drain = fun _ -> ()) () =
  let stamp = Array.make (Array.length w.profiles) 0 in
  Array.iter
    (fun (r : W.req) ->
      match r.kind with
      | W.Add _ | W.Stats -> ()
      | W.Feed post -> feed r (W.deliveries w ~stamp ~mark:(r.index + 1) post)
      | W.Tick -> tick r
      | W.Report i -> report r i
      | W.Query i -> query r i
      | W.Checkpoint -> checkpoint r
      | W.Drain -> drain r)
    w.script

(* {2 The passes} *)

let shard_pass (w : W.t) acc c ~serve_responses =
  let shard_set =
    Array.init shards (fun _ ->
        Mqdp.Shard.create
          { Mqdp.Shard.queue_capacity = Inproc.config.queue_capacity; tick_steps = None })
  in
  let profiles = Array.map make_profile w.profiles in
  let shard_of = shard_index w in
  Array.iteri (fun i p -> Mqdp.Shard.add shard_set.(shard_of.(i)) p) profiles;
  let pool = Util.Pool.create ~jobs:1 in
  let all_profiles () = Array.to_list profiles in
  walk w
    ~feed:(fun r ds ->
      let t0 = now_ns () in
      let ok =
        List.fold_left
          (fun n (i, post) ->
            if Mqdp.Shard.offer shard_set.(shard_of.(i)) profiles.(i) post then n + 1 else n)
          0 ds
      in
      acc.shard.(r.W.index) <- close ~name:"shard.offer" ~parent:"serve.FEED" r t0;
      c.delivered <- c.delivered + ok;
      if W.measured r then c.offers <- c.offers + List.length ds)
    ~tick:(fun r ->
      let backlog = Array.fold_left (fun n s -> n + Mqdp.Shard.backlog s) 0 shard_set in
      let t0 = now_ns () in
      Array.iter (fun s -> ignore (Mqdp.Shard.tick s)) shard_set;
      let dt = close ~name:"shard.tick" ~parent:"serve.TICK" r t0 in
      acc.shard.(r.index) <- dt;
      if W.measured r then begin
        c.ticks <- dt :: c.ticks;
        c.backlog_max <- max c.backlog_max backlog
      end)
    ~report:(fun r i ->
      let t0 = now_ns () in
      let es = Mqdp.Profile.take_report profiles.(i) in
      acc.report.(r.index) <- close ~name:"profile.take_report" ~parent:"serve.REPORT" r t0;
      if W.measured r then c.emissions <- c.emissions + List.length es)
    ~query:(fun r i ->
      match Mqdp.Profile.window profiles.(i) with
      | None -> ()
      | Some win ->
        let t0 = now_ns () in
        let instance = Mqdp.Window_index.to_instance win in
        acc.qinst.(r.index) <- close ~name:"window_index.to_instance" ~parent:"serve.QUERY" r t0;
        let lambda = Mqdp.Coverage.Fixed w.profiles.(i).lambda in
        let t1 = now_ns () in
        let rep =
          Mqdp.Supervisor.solve ~pool ~breaker:(Mqdp.Profile.breaker profiles.(i))
            ~ladder:(Mqdp.Supervisor.ladder_from Mqdp.Solver.Greedy_sc) instance lambda
        in
        acc.qsolve.(r.index) <- close ~name:"supervisor.solve" ~parent:"serve.QUERY" r t1;
        (* The serve pass answered this QUERY on the same window. *)
        (match List.rev serve_responses.(r.index) with
        | last :: _ when Run.int_after ~key:"size=" last = Some rep.Mqdp.Supervisor.size -> ()
        | _ -> c.query_mismatch <- c.query_mismatch + 1);
        if W.measured r then begin
          c.queries <- c.queries + 1;
          c.cover_sum <- c.cover_sum + rep.Mqdp.Supervisor.size;
          if String.equal rep.answered_by (Mqdp.Solver.algorithm_name Mqdp.Solver.Greedy_sc) then
            c.greedy_answers <- c.greedy_answers + 1;
          (* The GreedySC rung split into geometry and selection. *)
          let t2 = now_ns () in
          let index = Mqdp.Solver.compile instance lambda in
          let t3 = now_ns () in
          ignore (Mqdp.Solver.solve_compiled Mqdp.Solver.Greedy_sc index);
          c.compile_ns <- c.compile_ns +. ns_between t2 t3;
          c.greedy_ns <- c.greedy_ns +. ns_between t3 (now_ns ())
        end)
    ~checkpoint:(fun r ->
      let t0 = now_ns () in
      List.iter Mqdp.Profile.checkpoint_now (all_profiles ());
      acc.ckpt.(r.index) <- close ~name:"profile.checkpoint_now" ~parent:"serve.CHECKPOINT" r t0)
    ~drain:(fun _ -> List.iter Mqdp.Profile.drain (all_profiles ()))
    ();
  Util.Pool.shutdown pool;
  Array.iter
    (fun s ->
      let t0 = now_ns () in
      let snap = Mqdp.Shard.snapshot s in
      let t1 = now_ns () in
      ignore (Mqdp.Shard.restore snap);
      c.snapshot_ns <- c.snapshot_ns +. ns_between t0 t1;
      c.restore_ns <- c.restore_ns +. ns_between t1 (now_ns ());
      c.snapshot_bytes <- c.snapshot_bytes + String.length snap)
    shard_set

(* Posts a profile applied since its last checkpoint: the "j" line of its
   durable state. -1 when the line is missing, which fails the check
   that uses it. *)
let journal_length p =
  String.split_on_char '\n' (Mqdp.Profile.blob p)
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"j " l then int_of_string_opt (String.sub l 2 (String.length l - 2))
         else None)
  |> Option.value ~default:(-1)

(* Profiles stand alone here, configured as the daemon configures them
   (automatic checkpoints included), fed and processed at the same points
   as Shard.tick would. *)
let profile_pass (w : W.t) acc c =
  let profiles = Array.map make_profile w.profiles in
  let order = tick_order w in
  walk w
    ~feed:(fun r ds ->
      let t0 = now_ns () in
      List.iter (fun (i, post) -> Mqdp.Profile.offer profiles.(i) post) ds;
      acc.profile.(r.W.index) <- close ~name:"profile.offer" ~parent:"shard.offer" r t0)
    ~tick:(fun r ->
      let t0 = now_ns () in
      let applied = Array.fold_left (fun n i -> n + Mqdp.Profile.process profiles.(i)) 0 order in
      acc.profile.(r.index) <- close ~name:"profile.process" ~parent:"shard.tick" r t0;
      if W.measured r then c.applied <- c.applied + applied)
    ~report:(fun _ i -> ignore (Mqdp.Profile.take_report profiles.(i)))
    ~checkpoint:(fun _ -> Array.iter Mqdp.Profile.checkpoint_now profiles)
    ~drain:(fun _ ->
      c.journal_at_drain <- Array.map journal_length profiles;
      Array.iter Mqdp.Profile.drain profiles)
    ()

(* Posts delivered since the last TICK, per profile. *)
let pending_queues (w : W.t) = Array.map (fun _ -> Queue.create ()) w.profiles

(* Feeds alone, checkpointed where Profile checkpoints: after every
   [checkpoint_every] applied posts, at CHECKPOINT and at DRAIN. At DRAIN
   each feed's posts since its last checkpoint must equal its profile's
   in the profile pass. *)
let feed_pass (w : W.t) acc c =
  let every = Inproc.config.checkpoint_every in
  let feeds =
    Array.map
      (fun (p : W.profile) ->
        Mqdp.Feed.create ~config:feed_config ~window:p.window ~lambda:p.lambda p.mode)
      w.profiles
  in
  let pending = pending_queues w and since = Array.make (Array.length feeds) 0 in
  let order = tick_order w in
  let released () = Array.fold_left (fun n f -> n + (Mqdp.Feed.counters f).released) 0 feeds in
  let released_before = ref 0 in
  walk w
    ~feed:(fun _ ds -> List.iter (fun (i, post) -> Queue.push post pending.(i)) ds)
    ~tick:(fun r ->
      let t0 = now_ns () in
      let ckpt = ref 0. and pushes = ref 0 and emits = ref 0 in
      Array.iter
        (fun i ->
          let f = feeds.(i) in
          Queue.iter
            (fun post ->
              emits := !emits + List.length (Mqdp.Feed.push f post).Mqdp.Feed.emissions;
              incr pushes;
              since.(i) <- since.(i) + 1;
              if since.(i) >= every then begin
                let c0 = now_ns () in
                let s = Mqdp.Feed.checkpoint f in
                ckpt := !ckpt +. ns_between c0 (now_ns ());
                since.(i) <- 0;
                if W.measured r then begin
                  c.ckpt_bytes <- c.ckpt_bytes + String.length s;
                  c.ckpt_count <- c.ckpt_count + 1
                end
              end)
            pending.(i);
          Queue.clear pending.(i))
        order;
      acc.feed.(r.W.index) <- close ~name:"feed.push" ~parent:"profile.process" r t0;
      acc.fckpt.(r.index) <- !ckpt;
      let now_released = released () in
      if W.measured r then begin
        c.feed_pushes <- c.feed_pushes + !pushes;
        c.feed_releases <- c.feed_releases + now_released - !released_before;
        c.feed_emits <- c.feed_emits + !emits;
        Array.iter
          (fun f ->
            Option.iter
              (fun win ->
                c.feed_live_posts <- c.feed_live_posts +. float_of_int (Mqdp.Window_index.size win);
                c.feed_live_pairs <- c.feed_live_pairs +. float_of_int (Mqdp.Window_index.live_pairs win))
              (Mqdp.Feed.window f))
          feeds
      end;
      released_before := now_released)
    ~checkpoint:(fun _ ->
      Array.iteri
        (fun i f ->
          ignore (Mqdp.Feed.checkpoint f);
          since.(i) <- 0)
        feeds)
    ~drain:(fun _ ->
      Array.iteri
        (fun i f ->
          (* The checkpoints above fell where Profile's did only if both
             leave the same posts after the last one. *)
          if i >= Array.length c.journal_at_drain || since.(i) <> c.journal_at_drain.(i) then
            c.cadence_mismatch <- c.cadence_mismatch + 1;
          ignore (Mqdp.Feed.finish f);
          ignore (Mqdp.Feed.checkpoint f);
          since.(i) <- 0)
        feeds)
    ()

(* Feed holds each post in its 64-deep reorder buffer and releases it to
   Online when the 65th later one arrives; posts arrive in time order, so
   the buffer is a FIFO. [release i post] is what profile [i]'s engine
   receives; [tick_done r t0 releases] closes TICK [r], opened at [t0].
   [emulation_problems] checks its releases and emissions against the
   feed pass's real Feed. *)
let released_stream (w : W.t) ~release ~tick_done ~finish =
  let depth = Mqdp.Feed.default_config.Mqdp.Feed.reorder_window in
  let pending = pending_queues w and buffered = pending_queues w in
  let order = tick_order w in
  walk w
    ~feed:(fun _ ds -> List.iter (fun (i, post) -> Queue.push post pending.(i)) ds)
    ~tick:(fun r ->
      let t0 = now_ns () in
      let releases = ref 0 in
      Array.iter
        (fun i ->
          Queue.iter
            (fun post ->
              Queue.push post buffered.(i);
              if Queue.length buffered.(i) > depth then begin
                release i (Queue.pop buffered.(i));
                incr releases
              end)
            pending.(i);
          Queue.clear pending.(i))
        order;
      tick_done r t0 !releases)
    ~drain:(fun _ ->
      Array.iteri
        (fun i q ->
          Queue.iter (release i) q;
          Queue.clear q;
          finish i)
        buffered)
    ()

let online_pass (w : W.t) acc c =
  let engines =
    Array.map
      (fun (p : W.profile) ->
        let window =
          if p.window then Some (Mqdp.Window_index.create (Mqdp.Coverage.Fixed p.lambda)) else None
        in
        Mqdp.Online.create ?window ~lambda:p.lambda p.mode)
      w.profiles
  in
  let emits = ref 0 in
  released_stream w
    ~release:(fun i post -> emits := !emits + List.length (Mqdp.Online.push engines.(i) post))
    ~tick_done:(fun r t0 releases ->
      acc.online.(r.W.index) <- close ~name:"online.push" ~parent:"feed.push" r t0;
      if W.measured r then begin
        c.online_pushes <- c.online_pushes + releases;
        c.online_emits <- c.online_emits + !emits;
        c.pending_max <-
          Array.fold_left (fun m e -> max m (Mqdp.Online.pending_labels e)) c.pending_max engines
      end;
      emits := 0)
    ~finish:(fun i -> ignore (Mqdp.Online.finish engines.(i)))

(* The benchmark's own reorder-buffer emulation, timed alone so that the
   online and window passes can leave it out. *)
let relay_pass (w : W.t) acc =
  released_stream w
    ~release:(fun _ _ -> ())
    ~tick_done:(fun r t0 _ -> acc.relay.(r.W.index) <- ns_between t0 (now_ns ()))
    ~finish:(fun _ -> ())

(* Online's window upkeep: before each arrival, expire what lies beyond
   the previous arrival's horizon (previous - tau - lambda), then push.
   The live posts and pairs must match the real Feed's windows. *)
let window_pass (w : W.t) acc c =
  let windows =
    Array.map
      (fun (p : W.profile) ->
        if p.window then Some (Mqdp.Window_index.create (Mqdp.Coverage.Fixed p.lambda)) else None)
      w.profiles
  in
  let last = Array.make (Array.length windows) Float.nan in
  let horizon (p : W.profile) =
    p.lambda +. match p.mode with Mqdp.Online.Delayed { tau; _ } -> tau | Mqdp.Online.Instant -> 0.
  in
  released_stream w
    ~release:(fun i post ->
      match windows.(i) with
      | None -> ()
      | Some win ->
        if not (Float.is_nan last.(i)) then
          Mqdp.Window_index.expire_before win ~time:(last.(i) -. horizon w.profiles.(i));
        ignore (Mqdp.Window_index.try_push win post);
        last.(i) <- post.Mqdp.Post.value)
    ~tick_done:(fun r t0 _ ->
      acc.window.(r.W.index) <- close ~name:"window_index.push" ~parent:"online.push" r t0;
      if W.measured r then
        Array.iter
          (Option.iter (fun win ->
               c.live_posts <- c.live_posts +. float_of_int (Mqdp.Window_index.size win);
               c.live_pairs <- c.live_pairs +. float_of_int (Mqdp.Window_index.live_pairs win);
               c.live_samples <- c.live_samples + 1))
          windows)
    ~finish:(fun _ -> ())

(* [(seq_index w).(conn).(seq)] is the script index of that request. *)
let seq_index (w : W.t) =
  let top = [| 0; 0 |] in
  Array.iter (fun (r : W.req) -> top.(r.conn) <- max top.(r.conn) r.seq) w.script;
  let index = Array.map (fun n -> Array.make (n + 1) (-1)) top in
  Array.iter (fun (r : W.req) -> index.(r.conn).(r.seq) <- r.index) w.script;
  index

(* The sequence number a request line starts with, read without
   allocating: the transport pass measures the framer's allocation. *)
let seq_of line =
  let rec go i n =
    if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then
      go (i + 1) ((10 * n) + Char.code line.[i] - Char.code '0')
    else n
  in
  go 0 0

(* The journal as the serve pass left it: its C records appended with
   fsync, its compactions rewritten, each charged to its request. *)
let journal_pass (w : W.t) acc c (inproc : Inproc.t) ~dir =
  let index = seq_index w in
  let j, _ = Util.Fs.Journal.open_ ~fsync:true ~kind:"bench-e2e" (Filename.concat dir "replay.journal") in
  let compactions = ref inproc.Inproc.compactions in
  let compact_before idx =
    let rec go () =
      match !compactions with
      | (at, payloads) :: rest when at < idx ->
        let r = w.script.(at) in
        let t0 = now_ns () in
        Util.Fs.Journal.rewrite ~fsync:true j payloads;
        acc.rewrite.(at) <- close ~name:"journal.rewrite" ~parent:"persist" r t0;
        compactions := rest;
        go ()
      | _ -> ()
    in
    go ()
  in
  List.iter
    (fun payload ->
      match String.split_on_char '\t' payload with
      | "C" :: _gsn :: id :: seq :: _ -> (
        let conn = if String.equal id "reader" then 1 else 0 in
        match (int_of_string_opt seq, id) with
        | Some seq, ("ingest" | "reader") when seq < Array.length index.(conn) -> (
          match index.(conn).(seq) with
          | -1 -> ()
          | idx ->
            compact_before idx;
            let r = w.script.(idx) in
            let t0 = now_ns () in
            Util.Fs.Journal.append ~fsync:true j payload;
            acc.append.(idx) <- close ~name:"journal.append" ~parent:("serve." ^ W.verb r.kind) r t0;
            if W.measured r then begin
              c.appends <- c.appends + 1;
              c.append_bytes <- c.append_bytes + String.length payload
            end)
        | _ -> ())
      | _ -> ())
    inproc.Inproc.journal;
  compact_before max_int;
  Util.Fs.Journal.close j

(* The generator's writes, per connection, through the sans-IO framer,
   answered with the serve pass's responses. Framing and output time of a
   write is shared evenly by the requests it carried. Untimed, the pass
   allocates only what the framer does. *)
let transport_pass (w : W.t) ~index ~chunks ~responses ~timed acc =
  let transports = Array.init 2 (fun _ -> Mqdp.Transport.create ~now:0. ()) in
  let framed = ref (Array.make 64 0) and k = ref 0 and requests = ref 0 in
  let push idx =
    if !k = Array.length !framed then framed := Array.append !framed !framed;
    !framed.(!k) <- idx;
    incr k
  in
  let rec frame tr conn =
    match Mqdp.Transport.next tr ~now:0. with
    | Mqdp.Transport.Request line ->
      let seq = seq_of line in
      if seq < Array.length index.(conn) && index.(conn).(seq) >= 0 then push index.(conn).(seq);
      frame tr conn
    | Mqdp.Transport.Wait | Mqdp.Transport.Close _ -> ()
  in
  List.iter
    (fun (conn, bytes) ->
      let tr = transports.(conn) in
      let t0 = if timed then now_ns () else 0L in
      Mqdp.Transport.feed_string tr bytes;
      k := 0;
      frame tr conn;
      let t1 = if timed then now_ns () else 0L in
      for i = 0 to !k - 1 do
        Mqdp.Transport.respond tr responses.(!framed.(i))
      done;
      (match Mqdp.Transport.output tr with
      | Some (_, _, len) -> Mqdp.Transport.wrote tr len
      | None -> ());
      requests := !requests + !k;
      if timed && !k > 0 then begin
        let t2 = now_ns () in
        let r = w.script.(!framed.(0)) in
        let share = float_of_int !k in
        let f = record ~name:"transport.frame" ~parent:"request" r t0 t1 /. share in
        let o = record ~name:"transport.output" ~parent:"request" r t1 t2 /. share in
        for i = 0 to !k - 1 do
          let idx = !framed.(i) in
          acc.frame.(idx) <- acc.frame.(idx) +. f;
          acc.output.(idx) <- acc.output.(idx) +. o
        done
      end)
    chunks;
  !requests

(* {2 Metrics, breakdown and checks} *)

let write_trace path =
  let oc = open_out path in
  let sink = Util.Telemetry.Trace.to_channel oc in
  List.iter
    (fun s ->
      sink.Util.Telemetry.on_span ~name:s.name ~depth:0 ~start_ns:s.start ~dur_ns:s.dur
        ~args:[ ("req", string_of_int s.req); ("parent", s.parent) ])
    (List.rev !spans);
  close_out oc

(* Every line must parse as a complete-event object carrying a numeric
   "req" and a "parent"; every request a layer span names must have its
   own serve span, so the spans of one request share its id. *)
let check_trace path =
  let roots = Hashtbl.create 4096 and children = Hashtbl.create 4096 in
  let bad = ref 0 and lines = ref 0 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Json.of_string line with
       | json -> (
         match
           ( Json.member "name" json,
             Json.member "ph" json,
             Option.bind (Json.member "args" json) (Json.member "req"),
             Option.bind (Json.member "args" json) (Json.member "parent") )
         with
         | Some (Json.Str name), Some (Json.Str "X"), Some (Json.Str req), Some (Json.Str _)
           when int_of_string_opt req <> None ->
           if String.starts_with ~prefix:"serve." name then Hashtbl.replace roots req ()
           else Hashtbl.replace children req ()
         | _ -> incr bad)
       | exception Json.Parse_error _ -> incr bad
     done
   with End_of_file -> close_in ic);
  let orphans = Hashtbl.fold (fun req () n -> if Hashtbl.mem roots req then n else n + 1) children 0 in
  (!lines, !bad, orphans)

(* Three passes stand in for a policy of a layer they do not call: the
   feed pass checkpoints where Profile would, the online and window
   passes release posts as Feed's reorder buffer would, and the window
   pass expires posts as Online would. Each is checked against the real
   layer in the same run, so a change to Feed, Online or Profile cannot
   leave the attribution measuring another workload unnoticed. *)
let emulation_problems c =
  let differ what emulated real = Printf.sprintf "%s: emulated %s, real %s" what emulated real in
  let ints what a b = if a = b then [] else [ differ what (string_of_int a) (string_of_int b) ] in
  let floats what a b = if Float.equal a b then [] else [ differ what (Printf.sprintf "%.0f" a) (Printf.sprintf "%.0f" b) ] in
  ints "posts released to Online over the measured TICKs" c.online_pushes c.feed_releases
  @ ints "emissions over the measured TICKs" c.online_emits c.feed_emits
  @ floats "live window posts" c.live_posts c.feed_live_posts
  @ floats "live window pairs" c.live_pairs c.feed_live_pairs
  @
  if c.cadence_mismatch = 0 then []
  else
    [
      Printf.sprintf "%d profiles: the feed pass's checkpoints fell where Profile's did not"
        c.cadence_mismatch;
    ]

let metrics (w : W.t) (lb : Run.loopback) (reference : Inproc.t) (v : Run.verdict) ~late_p99 =
  spans := [];
  let n = Array.length w.script in
  let acc = make_acc n and c = make_counts () in
  let dir = Daemon.scratch_dir (w.spec.name ^ "-trace") in
  let serve_dir = Filename.concat dir "serve" in
  Daemon.ensure_dir serve_dir;
  let traced =
    Inproc.run ~faithful:true w ~state_dir:serve_dir ~observe:(fun r ~start ~serve_ns ~persist_ns ->
        acc.serve.(r.W.index) <- serve_ns;
        acc.persist.(r.index) <- persist_ns;
        let stop = Int64.add start (Int64.of_float serve_ns) in
        ignore (record ~name:("serve." ^ W.verb r.kind) ~parent:"request" r start stop);
        if persist_ns > 0. then
          ignore (record ~name:"persist" ~parent:("serve." ^ W.verb r.kind) r stop
                    (Int64.add stop (Int64.of_float persist_ns))))
  in
  let responses = reference.Inproc.responses and chunks = List.rev lb.lg.L.chunks in
  let index = seq_index w in
  ignore (transport_pass w ~index ~chunks ~responses ~timed:true acc);
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let framed = transport_pass w ~index ~chunks ~responses ~timed:false (make_acc 0) in
  let transport_alloc = (Gc.allocated_bytes () -. a0) /. float_of_int (max 1 framed) in
  (* Each pass starts from a collected heap, so none pays for the
     garbage of the one before. *)
  List.iter
    (fun pass ->
      Gc.full_major ();
      pass ())
    [
      (fun () -> shard_pass w acc c ~serve_responses:traced.Inproc.responses);
      (fun () -> profile_pass w acc c);
      (fun () -> feed_pass w acc c);
      (fun () -> online_pass w acc c);
      (fun () -> window_pass w acc c);
      (fun () -> relay_pass w acc);
      (fun () -> if w.spec.durable then journal_pass w acc c traced ~dir);
    ];
  Array.iteri
    (fun i relay ->
      acc.online.(i) <- acc.online.(i) -. relay;
      acc.window.(i) <- acc.window.(i) -. relay)
    acc.relay;
  (* Aggregates over request sets. *)
  let all = Array.to_list w.script in
  let measured = List.filter W.measured all in
  let capacity = List.filter (fun (r : W.req) -> r.phase = W.Capacity) all in
  let sum arr rs = List.fold_left (fun a (r : W.req) -> a +. arr.(r.index)) 0. rs in
  let of_verb vb rs = List.filter (fun (r : W.req) -> String.equal (W.verb r.kind) vb) rs in
  let ratio a b = if b = 0. then 0. else a /. b in
  let fi = float_of_int in
  let inproc rs = sum acc.frame rs +. sum acc.output rs +. sum acc.serve rs +. sum acc.persist rs in
  let inproc_measured = inproc measured in
  let children rs =
    sum acc.shard rs +. sum acc.report rs +. sum acc.ckpt rs +. sum acc.qinst rs +. sum acc.qsolve rs
    +. sum acc.append rs
  in
  let pct ~p xs = Run.pct ~p (Array.of_list xs) in
  let serve_times vb = List.map (fun (r : W.req) -> acc.serve.(r.index)) (of_verb vb measured) in
  let _, drift, cap_wall, n_cap = Run.capacity w lb in
  let e2e_us = cap_wall /. fi n_cap *. 1e6 in
  let inproc_us = inproc capacity /. fi n_cap /. 1e3 in
  let span_end =
    List.fold_left (fun m (r : W.req) -> Float.max m lb.lg.L.done_.(r.index)) 0. capacity
  in
  let cpus = fi (Domain.recommended_domain_count ()) in
  let m =
    Run.loopback_metrics w lb
    @ [
        ("machine.steal_pct", 100. *. ratio lb.steal_s ((span_end -. lb.open_start) *. cpus));
        ("loadgen.late_p99_ms", late_p99 *. 1e3);
        ("loadgen.drift_ratio", drift);
        ("net.remainder_us_per_req", e2e_us -. inproc_us);
        ("transport.frame_ns_per_req", sum acc.frame measured /. fi (List.length measured));
        ("transport.output_ns_per_req", sum acc.output measured /. fi (List.length measured));
        ("transport.alloc_b_per_req", transport_alloc);
        ("serve.FEED.p50_us", pct ~p:50. (serve_times "FEED") /. 1e3);
        ("serve.FEED.p99_us", pct ~p:99. (serve_times "FEED") /. 1e3);
        ("serve.FEED.busy_ms", sum acc.serve (of_verb "FEED" measured) /. 1e6);
        ("serve.TICK.p50_us", pct ~p:50. (serve_times "TICK") /. 1e3);
        ("serve.TICK.p90_us", pct ~p:90. (serve_times "TICK") /. 1e3);
        ("serve.TICK.busy_ms", sum acc.serve (of_verb "TICK" measured) /. 1e6);
        ("serve.REPORT.p50_us", pct ~p:50. (serve_times "REPORT") /. 1e3);
        ("serve.REPORT.p90_us", pct ~p:90. (serve_times "REPORT") /. 1e3);
        ("serve.REPORT.busy_ms", sum acc.serve (of_verb "REPORT" measured) /. 1e6);
        ("serve.QUERY.busy_pct", 100. *. ratio (sum acc.serve (of_verb "QUERY" measured)) (sum acc.serve measured));
        ( "serve.CHECKPOINT.busy_pct",
          100. *. ratio (sum acc.serve (of_verb "CHECKPOINT" measured)) (sum acc.serve measured) );
        ("serve.self_busy_ms", (sum acc.serve measured -. children measured) /. 1e6);
        ("serve.sansio_rps", fi n_cap /. (inproc capacity /. 1e9));
        ("journal.appends", fi c.appends);
        ("journal.bytes_per_append", ratio (fi c.append_bytes) (fi c.appends));
        ("journal.busy_pct", 100. *. ratio (sum acc.append measured +. sum acc.rewrite measured) inproc_measured);
        ( "journal.rewrite_share_pct",
          100. *. ratio (sum acc.rewrite measured) (sum acc.append measured +. sum acc.rewrite measured) );
        ("shard.offer_ns", ratio (sum acc.shard (of_verb "FEED" measured)) (fi c.offers));
        ("shard.tick_p50_ms", pct ~p:50. c.ticks /. 1e6);
        ("shard.tick_p90_ms", pct ~p:90. c.ticks /. 1e6);
        ("shard.snapshot_ms", c.snapshot_ns /. 1e6);
        ("shard.snapshot_kb", fi c.snapshot_bytes /. 1024.);
        ("shard.restore_ms", c.restore_ns /. 1e6);
        ("shard.backlog_max", fi c.backlog_max);
        ("profile.offer_ns", ratio (sum acc.profile (of_verb "FEED" measured)) (fi c.offers));
        (* A profile checkpoint is a Feed checkpoint plus list copies: the
           feed pass times them at the same points. *)
        ( "profile.process_ns_per_post",
          ratio (sum acc.profile (of_verb "TICK" measured) -. sum acc.fckpt measured) (fi c.applied) );
        ("profile.report_ns_per_emission", ratio (sum acc.report measured) (fi c.emissions));
        ("profile.checkpoint_us", ratio (sum acc.fckpt measured) (fi c.ckpt_count) /. 1e3);
        ("profile.checkpoints", fi c.ckpt_count);
        ("feed.push_ns", ratio (sum acc.feed measured -. sum acc.fckpt measured) (fi c.feed_pushes));
        ("feed.checkpoint_kb", ratio (fi c.ckpt_bytes) (fi c.ckpt_count) /. 1024.);
        ("online.push_ns", ratio (sum acc.online measured) (fi c.online_pushes));
        ("online.emit_ratio", ratio (fi c.online_emits) (fi c.online_pushes));
        ("online.pending_labels_max", fi c.pending_max);
        ("window_index.busy_pct", 100. *. ratio (sum acc.window measured +. sum acc.qinst measured) inproc_measured);
        ("window_index.live_posts_mean", ratio c.live_posts (fi c.live_samples));
        ("window_index.live_pairs_mean", ratio c.live_pairs (fi c.live_samples));
        ("supervisor.busy_pct", 100. *. ratio (sum acc.qsolve measured) inproc_measured);
        ("supervisor.cover_size_mean", ratio (fi c.cover_sum) (fi c.queries));
        ("supervisor.greedy_answer_ratio", ratio (fi c.greedy_answers) (fi c.queries));
        ("solver.compile_share", ratio c.compile_ns (c.compile_ns +. c.greedy_ns));
        ( "trace.overhead_pct",
          100. *. ratio (traced.Inproc.measured_s -. reference.Inproc.measured_s) reference.Inproc.measured_s );
      ]
  in
  (* The breakdown of one capacity-phase request, in us: each layer's self
     time, the network as what the in-process replay leaves over. *)
  let per_req x = x /. fi n_cap /. 1e3 in
  let rows =
    [
      ("net (remainder)", e2e_us -. inproc_us);
      ("transport", per_req (sum acc.frame capacity +. sum acc.output capacity));
      ("persist", per_req (sum acc.persist capacity -. sum acc.rewrite capacity));
      ("journal", per_req (sum acc.append capacity +. sum acc.rewrite capacity));
      ("serve (self)", per_req (sum acc.serve capacity -. children capacity));
      ("shard (self)", per_req (sum acc.shard capacity -. sum acc.profile capacity));
      ( "profile (self)",
        per_req
          (sum acc.profile capacity -. sum acc.feed capacity +. sum acc.report capacity
         +. sum acc.ckpt capacity) );
      ("feed (self)", per_req (sum acc.feed capacity -. sum acc.online capacity));
      ("online (self)", per_req (sum acc.online capacity -. sum acc.window capacity));
      ("window_index", per_req (sum acc.window capacity +. sum acc.qinst capacity));
      ("supervisor", per_req (sum acc.qsolve capacity));
    ]
  in
  Printf.printf "breakdown of one capacity-phase request (%d requests), us:\n" n_cap;
  List.iter (fun (name, us) -> Printf.printf "  %-18s %12.3f\n" name us) rows;
  let total = List.fold_left (fun a (_, us) -> a +. us) 0. rows in
  Printf.printf "  %-18s %12.3f  (end to end %.3f)\n" "sum" total e2e_us;
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if Float.abs (total -. e2e_us) > 1e-6 *. Float.abs e2e_us then
    say "breakdown rows sum to %.3f us, end to end is %.3f us" total e2e_us;
  (* Each verb's child layers, replayed alone, cannot take longer than the
     verb did in exec_on (10% slack for timer noise). *)
  List.iter
    (fun (vb, kids) ->
      let rs = of_verb vb measured in
      if rs <> [] then begin
        let parent = sum acc.serve rs and child = kids rs +. sum acc.append rs in
        Printf.printf "CHECK attribution %-10s children %10.3f ms <= 1.1 x serve %10.3f ms: %s\n" vb
          (child /. 1e6) (parent /. 1e6)
          (if child <= 1.1 *. parent then "ok" else "FAIL")
      end)
    [
      ("FEED", sum acc.shard);
      ("TICK", sum acc.shard);
      ("REPORT", sum acc.report);
      ("QUERY", fun rs -> sum acc.qinst rs +. sum acc.qsolve rs);
      ("CHECKPOINT", sum acc.ckpt);
    ];
  if c.delivered <> v.Run.delivered then
    say "the replayed profile streams hold %d posts, Serve delivered %d" c.delivered v.Run.delivered;
  if c.query_mismatch > 0 then
    say "%d replayed QUERY solves differ from the serve pass's answers" c.query_mismatch;
  List.iter (say "%s") (emulation_problems c);
  let path = Filename.concat Daemon.work_root (Printf.sprintf "trace-%s.jsonl" w.spec.name) in
  write_trace path;
  let lines, bad, orphans = check_trace path in
  Printf.printf "trace %s: %d spans, %d invalid, %d requests without a serve span\n" path lines bad
    orphans;
  if bad > 0 || orphans > 0 || lines = 0 then say "trace %s fails its checks" path;
  spans := [];
  (m, List.rev !problems)
