type config = {
  lambda : float;
  mode : Online.mode;
  feed : Feed.config;
  window : bool;
  checkpoint_every : int;
  max_restarts : int;
}

let default_config =
  {
    lambda = 60.;
    mode = Online.Delayed { tau = 30.; plus = false };
    feed = Feed.default_config;
    window = true;
    checkpoint_every = 64;
    max_restarts = 3;
  }

type t = {
  name : string;
  subscription : Label_set.t;
  config : config;
  mutable degraded : bool;
  mutable quarantined : bool;
  mutable crashes : int;
  mutable feed : Feed.t;  (* live incarnation; rebuilt wholesale on crash *)
  (* Durable state: everything below survives a crash because recovery
     only ever reads it — the live feed is the one thing rebuilt. *)
  mutable ckpt : string;
  mutable ckpt_emit_seq : int;
  mutable ckpt_buffer : (int * Online.emission) list;  (* ascending *)
  mutable journal_rev : Post.t list;  (* applied since ckpt, newest first *)
  mutable journal_n : int;
  pending_q : Post.t Queue.t;
  mutable pending_n : int;
  mutable emit_seq : int;
  mutable reported_upto : int;
  mutable buffer_rev : (int * Online.emission) list;  (* newest first *)
  mutable acked : int;
  mutable applied : int;
  mutable rejected : int;
  breaker : Supervisor.Breaker.t;
}

let make_feed (config : config) =
  Feed.create ~config:config.feed ~window:config.window ~lambda:config.lambda
    config.mode

let create ~name ~subscription config =
  if name = "" then invalid_arg "Profile.create: empty name";
  if Label_set.is_empty subscription then
    invalid_arg "Profile.create: empty subscription";
  if config.checkpoint_every < 0 then
    invalid_arg "Profile.create: checkpoint_every < 0";
  if config.max_restarts < 0 then invalid_arg "Profile.create: max_restarts < 0";
  let feed = make_feed config in
  {
    name;
    subscription;
    config;
    degraded = false;
    quarantined = false;
    crashes = 0;
    feed;
    ckpt = Feed.checkpoint feed;
    ckpt_emit_seq = 0;
    ckpt_buffer = [];
    journal_rev = [];
    journal_n = 0;
    pending_q = Queue.create ();
    pending_n = 0;
    emit_seq = 0;
    reported_upto = 0;
    buffer_rev = [];
    acked = 0;
    applied = 0;
    rejected = 0;
    breaker = Supervisor.Breaker.create ();
  }

let name t = t.name
let subscription t = t.subscription
let config t = t.config
let degraded t = t.degraded
let mark_degraded t = t.degraded <- true
let quarantined t = t.quarantined
let crashes t = t.crashes
let pending t = t.pending_n
let unreported t = List.length t.buffer_rev
let acked t = t.acked
let applied t = t.applied
let rejected t = t.rejected
let window t = Feed.window t.feed
let breaker t = t.breaker

let offer t post =
  if t.quarantined then invalid_arg "Profile.offer: profile is quarantined";
  Queue.push post t.pending_q;
  t.pending_n <- t.pending_n + 1;
  t.acked <- t.acked + 1

let note_emissions t emissions =
  List.iter
    (fun e ->
      t.emit_seq <- t.emit_seq + 1;
      t.buffer_rev <- (t.emit_seq, e) :: t.buffer_rev)
    emissions

(* A [Raise]-policy rejection is a policy outcome, not a failure: the feed
   state is untouched, the post is consumed and counted. Replay reproduces
   the same rejection deterministically (without recounting). *)
let apply_post t post =
  match Feed.push t.feed post with
  | outcome -> note_emissions t outcome.Feed.emissions
  | exception Feed.Rejected _ -> t.rejected <- t.rejected + 1

(* Rebuild the live feed from the checkpoint and replay the journal
   chaos-free. Feed's bit-identical replay guarantee regenerates exactly
   the emissions the dead incarnation produced — same order, and (counting
   from the checkpoint's sequence number) the same sequence numbers — so
   the unreported buffer can be reconstructed precisely: pre-checkpoint
   emissions come from [ckpt_buffer], post-checkpoint ones from the
   replay, both filtered by the reported watermark. [feed], when given,
   is [t.ckpt] already restored. *)
let recover ?feed t =
  let feed = match feed with Some f -> f | None -> Feed.restore t.ckpt in
  t.feed <- feed;
  let seq = ref t.ckpt_emit_seq in
  let replayed_rev = ref [] in
  let replay post =
    match Feed.push feed post with
    | outcome ->
      List.iter
        (fun e ->
          incr seq;
          if !seq > t.reported_upto then replayed_rev := (!seq, e) :: !replayed_rev)
        outcome.Feed.emissions
    | exception Feed.Rejected _ -> ()
  in
  List.iter replay (List.rev t.journal_rev);
  t.emit_seq <- !seq;
  let kept_ckpt =
    List.filter (fun (s, _) -> s > t.reported_upto) t.ckpt_buffer
  in
  t.buffer_rev <- !replayed_rev @ List.rev kept_ckpt

let checkpoint_now t =
  t.ckpt <- Feed.checkpoint t.feed;
  t.ckpt_emit_seq <- t.emit_seq;
  t.ckpt_buffer <- List.rev t.buffer_rev;
  t.journal_rev <- [];
  t.journal_n <- 0

let maybe_auto_checkpoint t =
  if t.config.checkpoint_every > 0 && t.journal_n >= t.config.checkpoint_every
  then checkpoint_now t

(* Apply one post, recovering from any crash. The first attempt runs the
   chaos hook before touching the feed (so an injected crash can never
   tear it); retries after a recovery run chaos-free, so each crash makes
   progress — unless the restart limit trips, which quarantines. Returns
   [false] on quarantine. *)
let rec apply_with_recovery t ~chaos ~use_chaos post =
  match
    if use_chaos then chaos ();
    apply_post t post
  with
  | () ->
    t.journal_rev <- post :: t.journal_rev;
    t.journal_n <- t.journal_n + 1;
    true
  | exception _ ->
    t.crashes <- t.crashes + 1;
    recover t;
    if t.crashes > t.config.max_restarts then begin
      t.quarantined <- true;
      false
    end
    else apply_with_recovery t ~chaos ~use_chaos:false post

let process ?(chaos = fun () -> ()) ?(budget = Util.Budget.unlimited) t =
  let applied0 = t.applied in
  (try
     while (not t.quarantined) && t.pending_n > 0 do
       Util.Budget.step budget;
       let post = Queue.peek t.pending_q in
       if apply_with_recovery t ~chaos ~use_chaos:true post then begin
         ignore (Queue.pop t.pending_q);
         t.pending_n <- t.pending_n - 1;
         t.applied <- t.applied + 1;
         maybe_auto_checkpoint t
       end
     done
   with Util.Budget.Exhausted _ -> ());
  t.applied - applied0

let take_report t =
  let report = List.rev t.buffer_rev in
  t.buffer_rev <- [];
  t.reported_upto <- t.emit_seq;
  report

let drain t =
  if not t.quarantined then begin
    note_emissions t (Feed.finish t.feed);
    (* Mandatory: finish emissions cannot be regenerated by journal
       replay, so they must be baked into the checkpoint to be durable. *)
    checkpoint_now t
  end

let revive t =
  if t.quarantined then begin
    recover t;
    t.crashes <- 0;
    t.quarantined <- false
  end

(* {2 Durable serialization}

   Line-oriented text in Feed's field codec. The embedded feed checkpoint
   is escaped onto one line and already carries λ, mode, feed config and
   the window, so only the profile's own state is written beside it.
   Integrity is the enclosing shard snapshot's seal. *)

let blob t =
  let b = Buffer.create 1024 in
  let line fmt = Util.Fs.line b fmt in
  line "name %s" (String.escaped t.name);
  line "flags %d %d %d" (Bool.to_int t.degraded) (Bool.to_int t.quarantined) t.crashes;
  line "counters %d %d %d" t.acked t.applied t.rejected;
  line "seqs %d %d" t.reported_upto t.ckpt_emit_seq;
  line "limits %d %d" t.config.checkpoint_every t.config.max_restarts;
  line "sub %s" (Feed.labels_field t.subscription);
  line "ckpt %s" (String.escaped t.ckpt);
  line "cb %d" (List.length t.ckpt_buffer);
  List.iter
    (fun (seq, e) ->
      line "e %d %s %s" seq (Feed.float_field e.Online.emit_time) (Feed.post_field e.Online.post))
    t.ckpt_buffer;
  line "j %d" t.journal_n;
  List.iter (fun p -> line "p %s" (Feed.post_field p)) (List.rev t.journal_rev);
  line "pq %d" t.pending_n;
  Queue.iter (fun p -> line "p %s" (Feed.post_field p)) t.pending_q;
  Buffer.contents b

let of_blob s =
  let cur = Util.Fs.cursor s in
  let int = Util.Fs.int_field and expect = Util.Fs.expect cur in
  let bad what = Util.Fs.corrupt "bad %s line in profile blob" what in
  let name = Util.Fs.unescape (Util.Fs.field cur "name") in
  let degraded, quarantined, crashes =
    match expect "flags" with
    | [ d; q; c ] -> (int "flags" d = 1, int "flags" q = 1, int "crashes" c)
    | _ -> bad "flags"
  in
  let acked, applied, rejected =
    match expect "counters" with
    | [ a; p; r ] -> (int "acked" a, int "applied" p, int "rejected" r)
    | _ -> bad "counters"
  in
  let reported_upto, ckpt_emit_seq =
    match expect "seqs" with
    | [ r; c ] -> (int "reported" r, int "checkpoint seq" c)
    | _ -> bad "seqs"
  in
  let checkpoint_every, max_restarts =
    match expect "limits" with
    | [ ce; mr ] -> (int "checkpoint_every" ce, int "max_restarts" mr)
    | _ -> bad "limits"
  in
  let subscription = Feed.labels_of_field (Util.Fs.field cur "sub") in
  let ckpt = Util.Fs.unescape (Util.Fs.field cur "ckpt") in
  let count tag = int tag (Util.Fs.field cur tag) in
  let ckpt_buffer =
    List.init (count "cb") (fun _ ->
        match expect "e" with
        | seq :: emit :: post ->
          (int "seq" seq, { Online.emit_time = Feed.float_of_field emit; post = Feed.post_of_fields post })
        | _ -> bad "e")
  in
  let posts tag = List.init (count tag) (fun _ -> Feed.post_of_fields (expect "p")) in
  let journal = posts "j" in
  let pending = posts "pq" in
  if not (Util.Fs.at_end cur) then bad "trailing";
  (* λ, mode, feed config and the window flag come back from the
     checkpoint, the one place they are stored. *)
  let feed = Feed.restore ckpt in
  let engine = Feed.engine feed in
  let config =
    {
      lambda = Online.lambda engine;
      mode = Online.mode engine;
      feed = Feed.config feed;
      window = Option.is_some (Feed.window feed);
      checkpoint_every;
      max_restarts;
    }
  in
  let pending_q = Queue.create () in
  List.iter (fun p -> Queue.push p pending_q) pending;
  let t =
    {
      name;
      subscription;
      config;
      degraded;
      quarantined;
      crashes;
      feed;
      ckpt;
      ckpt_emit_seq;
      ckpt_buffer;
      journal_rev = List.rev journal;
      journal_n = List.length journal;
      pending_q;
      pending_n = List.length pending;
      emit_seq = 0;
      reported_upto;
      buffer_rev = [];
      acked;
      applied;
      rejected;
      breaker = Supervisor.Breaker.create ();
    }
  in
  (* Rebuilding from durable state IS the crash-recovery path: replay the
     journal to regenerate the live feed, sequence counter, and buffer. *)
  recover ~feed t;
  t
