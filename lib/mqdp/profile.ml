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
  mutable ckpt_buffer_rev : (int * Online.emission) list;  (* newest first *)
  (* The post log: [log.(lo .. ap-1)] is the journal (applied since
     [ckpt]), [log.(ap .. hi-1)] the pending posts (acknowledged, not yet
     applied), oldest first. Slots outside [lo, hi) hold [vacant]. *)
  mutable log : Post.t array;
  mutable lo : int;
  mutable ap : int;
  mutable hi : int;
  mutable emit_seq : int;
  mutable reported_upto : int;
  mutable buffer_rev : (int * Online.emission) list;  (* newest first *)
  mutable acked : int;
  mutable applied : int;
  mutable rejected : int;
  breaker : Supervisor.Breaker.t;
}

let vacant = { Post.id = 0; value = 0.; labels = Label_set.empty }

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
    ckpt_buffer_rev = [];
    log = [||];
    lo = 0;
    ap = 0;
    hi = 0;
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
let pending t = t.hi - t.ap
let unreported t = List.length t.buffer_rev
let acked t = t.acked
let applied t = t.applied
let rejected t = t.rejected
let window t = Feed.window t.feed
let breaker t = t.breaker

(* Make room for one more post at [hi]: slide the live range [lo, hi)
   to the front when a checkpoint has freed the slots before it, else
   double the array. *)
let make_room t =
  let live = t.hi - t.lo in
  if live < Array.length t.log / 2 then begin
    Array.blit t.log t.lo t.log 0 live;
    Array.fill t.log live (t.hi - live) vacant
  end
  else begin
    let log = Array.make (max 16 (2 * Array.length t.log)) vacant in
    Array.blit t.log t.lo log 0 live;
    t.log <- log
  end;
  t.ap <- t.ap - t.lo;
  t.hi <- live;
  t.lo <- 0

let offer t post =
  if t.quarantined then invalid_arg "Profile.offer: profile is quarantined";
  if t.hi = Array.length t.log then make_room t;
  t.log.(t.hi) <- post;
  t.hi <- t.hi + 1;
  t.acked <- t.acked + 1

(* A recursion, not [List.iter]: this runs for every applied post, and an
   iteration closure would be allocated even when there is nothing to
   note. *)
let rec note_emissions t = function
  | [] -> ()
  | e :: rest ->
    t.emit_seq <- t.emit_seq + 1;
    t.buffer_rev <- (t.emit_seq, e) :: t.buffer_rev;
    note_emissions t rest

(* A [Raise]-policy rejection is a policy outcome, not a failure: the feed
   state is untouched, the post is consumed and counted. Replay reproduces
   the same rejection deterministically (without recounting). *)
let apply_post t post =
  match Feed.push_emissions t.feed post with
  | es -> note_emissions t es
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
    match Feed.push_emissions feed post with
    | es ->
      List.iter
        (fun e ->
          incr seq;
          if !seq > t.reported_upto then replayed_rev := (!seq, e) :: !replayed_rev)
        es
    | exception Feed.Rejected _ -> ()
  in
  for i = t.lo to t.ap - 1 do
    replay t.log.(i)
  done;
  t.emit_seq <- !seq;
  let kept_ckpt_rev =
    List.filter (fun (s, _) -> s > t.reported_upto) t.ckpt_buffer_rev
  in
  t.buffer_rev <- !replayed_rev @ kept_ckpt_rev

(* The unreported buffer is shared, not copied: both lists are immutable
   and newest first. The journal's slots are cleared so the checkpointed
   posts are not kept alive by the log. *)
let checkpoint_now t =
  t.ckpt <- Feed.checkpoint t.feed;
  t.ckpt_emit_seq <- t.emit_seq;
  t.ckpt_buffer_rev <- t.buffer_rev;
  Array.fill t.log t.lo (t.ap - t.lo) vacant;
  t.lo <- t.ap

let maybe_auto_checkpoint t =
  if t.config.checkpoint_every > 0 && t.ap - t.lo >= t.config.checkpoint_every
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
    (* the post moves from the pending range to the journal *)
    t.ap <- t.ap + 1;
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
     while (not t.quarantined) && t.ap < t.hi do
       Util.Budget.step budget;
       if apply_with_recovery t ~chaos ~use_chaos:true t.log.(t.ap) then begin
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
  let b = Buffer.create (String.length t.ckpt + 1024) in
  let str s = Buffer.add_string b s
  and sp () = Buffer.add_char b ' '
  and nl () = Buffer.add_char b '\n' in
  let ints key ns = str key; List.iter (fun n -> sp (); Util.Fs.add_int b n) ns; nl () in
  let post_line p = str "p "; Feed.add_post b p; nl () in
  str "name "; Util.Fs.add_escaped b t.name; nl ();
  ints "flags" [ Bool.to_int t.degraded; Bool.to_int t.quarantined; t.crashes ];
  ints "counters" [ t.acked; t.applied; t.rejected ];
  ints "seqs" [ t.reported_upto; t.ckpt_emit_seq ];
  ints "limits" [ t.config.checkpoint_every; t.config.max_restarts ];
  str "sub "; Feed.add_labels b t.subscription; nl ();
  str "ckpt "; Util.Fs.add_escaped b t.ckpt; nl ();
  ints "cb" [ List.length t.ckpt_buffer_rev ];
  List.iter
    (fun (seq, e) ->
      str "e "; Util.Fs.add_int b seq; sp (); Util.Fs.add_float_bits b e.Online.emit_time; sp ();
      Feed.add_post b e.Online.post; nl ())
    (List.rev t.ckpt_buffer_rev);
  ints "j" [ t.ap - t.lo ];
  for i = t.lo to t.ap - 1 do post_line t.log.(i) done;
  ints "pq" [ t.hi - t.ap ];
  for i = t.ap to t.hi - 1 do post_line t.log.(i) done;
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
  let log = Array.of_list (journal @ pending) in
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
      ckpt_buffer_rev = List.rev ckpt_buffer;
      log;
      lo = 0;
      ap = List.length journal;
      hi = Array.length log;
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
