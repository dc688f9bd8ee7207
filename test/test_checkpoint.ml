(* What a checkpoint costs and what it writes.

   [Feed.checkpoint] sorts its id lists in a per-domain scratch, writes
   the reorder buffer in place and reads the engine's state without
   exporting it; [Profile] keeps its journal and pending posts in one
   array. Two oracles pin the bytes to the earlier gather: a copy of it
   here for feed images (the reorder buffer as a sorted list, ids through
   [Array_util.sorted_keys], the engine through [Online.export]), and a
   copy of the list-and-queue profile for blobs. The allocation bounds
   keep the gather from coming back. *)

open Helpers

module Feed = Mqdp.Feed
module Online = Mqdp.Online
module Post = Mqdp.Post
module Profile = Mqdp.Profile

let mk id value labels = post ~id ~value labels

(* --- The earlier feed gather ---------------------------------------- *)

(* What the stream did to a feed, kept beside it: the ids it admitted,
   the posts still staged in its reorder buffer (unordered), and the
   newest value it admitted. *)
type model = {
  seen : (int, unit) Hashtbl.t;
  mutable staged : Post.t list;
  mutable high : float;
}

let new_model () = { seen = Hashtbl.create 64; staged = []; high = neg_infinity }

let min_post = function
  | [] -> invalid_arg "min_post"
  | p :: ps -> List.fold_left (fun m q -> if Post.compare_by_value q m < 0 then q else m) p ps

let note_admitted m window (outcome : Feed.outcome) =
  match outcome.Feed.admitted with
  | None -> ()
  | Some p ->
    Hashtbl.replace m.seen p.Post.id ();
    m.high <- Float.max m.high p.Post.value;
    m.staged <- p :: m.staged;
    while List.length m.staged > window do
      let least = min_post m.staged in
      m.staged <- List.filter (fun q -> q != least) m.staged
    done

let policy_name = function Feed.Drop -> "drop" | Feed.Clamp -> "clamp" | Feed.Raise -> "raise"

(* The earlier [Feed.checkpoint], fed from the model where it read the
   feed's private state. *)
let old_checkpoint feed m =
  Util.Fs.seal ~magic:"mqdp-feed-checkpoint" ~version:2 @@ fun b ->
  let str s = Buffer.add_string b s
  and int n = Util.Fs.add_int b n
  and float f = Util.Fs.add_float_bits b f
  and sp () = Buffer.add_char b ' '
  and nl () = Buffer.add_char b '\n' in
  let post_line p = str "p "; Feed.add_post b p; nl () in
  let ints key ids =
    str key; sp (); int (Array.length ids); sp ();
    Array.iteri (fun i id -> if i > 0 then sp (); int id) ids;
    nl ()
  in
  let policy p = sp (); str (policy_name p) in
  let c = Feed.config feed and k = Feed.counters feed in
  str "config "; int c.reorder_window; policy c.late; policy c.duplicate; policy c.non_finite; sp ();
  (match c.overload_budget with None -> str "none" | Some n -> int n);
  nl ();
  str "counters";
  List.iter (fun n -> sp (); int n)
    [ k.accepted; k.released; k.reordered; k.late_dropped; k.late_clamped; k.duplicate_dropped;
      k.non_finite_dropped; k.non_finite_clamped; k.rejected; k.shed ];
  nl ();
  let watermark = Option.value (Feed.watermark feed) ~default:neg_infinity in
  str "watermark "; float watermark; sp (); float m.high; nl ();
  ints "seen" (Util.Array_util.sorted_keys m.seen);
  let staged = List.sort Post.compare_by_value m.staged in
  str "buffer "; int (List.length staged); nl ();
  List.iter post_line staged;
  let s = Online.export (Feed.engine feed) in
  str "engine "; float s.Online.snap_lambda;
  (match s.Online.snap_mode with
  | Online.Instant -> str " instant"
  | Online.Delayed { tau; plus } -> str " delayed "; float tau; sp (); int (Bool.to_int plus));
  nl ();
  str "last "; (match s.Online.snap_last_time with None -> str "none" | Some v -> float v); nl ();
  ints "emitted" s.Online.snap_emitted;
  ints "degraded" s.Online.snap_degraded;
  str "labels "; int (List.length s.Online.snap_labels); nl ();
  List.iter
    (fun ls ->
      str "label "; int ls.Online.snap_label; sp (); int (List.length ls.Online.snap_pending); nl ();
      str "last "; (match ls.Online.snap_last_out with None -> str "none" | Some p -> Feed.add_post b p); nl ();
      List.iter post_line ls.Online.snap_pending)
    s.Online.snap_labels;
  match Feed.window feed with
  | None -> str "window none\n"
  | Some w ->
    let s = Mqdp.Window_index.export w in
    str "window "; int s.snap_expired; sp (); int (List.length s.snap_posts); sp ();
    int (Bool.to_int s.snap_guarded); sp (); float s.snap_guard_value; sp (); int s.snap_guard_id; nl ();
    List.iter post_line s.snap_posts

(* A feed script: the config, whether a window is attached, the mode,
   and the arrivals, each with a flag asking for a checkpoint comparison
   (and a restore from the image) after it. *)
type feed_case = {
  cfg : Feed.config;
  window : bool;
  mode : Online.mode;
  arrivals : (Post.t * bool) list;
}

let gen_feed_case =
  let open QCheck.Gen in
  let policy = oneofl [ Feed.Drop; Feed.Clamp; Feed.Raise ] in
  let* reorder_window = int_range 0 8 in
  let* late = policy and* duplicate = policy and* non_finite = policy in
  let* overload_budget = opt ~ratio:0.4 (int_range 1 3) in
  let* window = bool in
  let* mode =
    oneof
      [ return Online.Instant;
        map2 (fun tau plus -> Online.Delayed { tau; plus }) (float_range 0. 4.) bool ]
  in
  let* n = int_range 0 60 in
  let arrival i =
    (* drift forward with jitter backwards: reordered, late and equal
       values; ids from a small pool, so duplicates recur *)
    let* id = oneof [ return i; int_range 0 (i + 1) ] in
    let* value =
      frequency
        [ (12, map (fun j -> (float_of_int i /. 2.) -. j) (float_range 0. 3.));
          (2, map (fun v -> float_of_int (v / 2)) (int_range 0 i));
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]) ]
    in
    let* labels = list_size (int_range 1 3) (int_range 0 5) in
    let* compare = bool in
    return ({ Post.id; value; labels = Mqdp.Label_set.of_list labels }, compare)
  in
  let* arrivals = flatten_l (List.init n arrival) in
  return
    { cfg = { Feed.reorder_window; late; duplicate; non_finite; overload_budget }; window; mode;
      arrivals }

let print_feed_case c =
  Printf.sprintf "window=%d late=%s dup=%s nonfinite=%s budget=%s window=%b mode=%s\n%s"
    c.cfg.reorder_window (policy_name c.cfg.late) (policy_name c.cfg.duplicate)
    (policy_name c.cfg.non_finite)
    (match c.cfg.overload_budget with None -> "none" | Some b -> string_of_int b)
    c.window
    (match c.mode with
    | Online.Instant -> "instant"
    | Online.Delayed { tau; plus } -> Printf.sprintf "delayed %g%s" tau (if plus then "+" else ""))
    (String.concat " "
       (List.map (fun (p, c) -> Format.asprintf "%a%s" Post.pp p (if c then "!" else "")) c.arrivals))

let feed_image_property =
  qtest ~count:500 "feed checkpoint = the earlier gather, byte for byte"
    (QCheck.make ~print:print_feed_case gen_feed_case)
    (fun c ->
      let feed = ref (Feed.create ~config:c.cfg ~window:c.window ~lambda:1.5 c.mode) in
      let m = new_model () in
      let same what =
        let image = Feed.checkpoint !feed and expected = old_checkpoint !feed m in
        if not (String.equal image expected) then
          QCheck.Test.fail_reportf "%s:\n%s\nexpected\n%s" what image expected;
        image
      in
      ignore (same "empty feed");
      List.iteri
        (fun i (p, compare) ->
          (match Feed.push !feed p with
          | outcome -> note_admitted m c.cfg.reorder_window outcome
          | exception Feed.Rejected _ -> ());
          if compare then feed := Feed.restore (same (Printf.sprintf "after arrival %d" i)))
        c.arrivals;
      ignore (Feed.finish !feed);
      m.staged <- [];
      ignore (same "after finish");
      true)

(* --- The earlier profile -------------------------------------------- *)

(* [Profile] as it was before the post log: the journal a newest-first
   list, the pending posts a queue, the checkpoint's unreported buffer
   reversed on every checkpoint. Kept to the operations the property
   drives; [blob] writes the bytes the new profile must match. *)
module Old_profile = struct
  type t = {
    name : string;
    subscription : Mqdp.Label_set.t;
    config : Profile.config;
    mutable quarantined : bool;
    mutable crashes : int;
    mutable feed : Feed.t;
    mutable ckpt : string;
    mutable ckpt_emit_seq : int;
    mutable ckpt_buffer : (int * Online.emission) list;
    mutable journal_rev : Post.t list;
    mutable journal_n : int;
    pending_q : Post.t Queue.t;
    mutable pending_n : int;
    mutable emit_seq : int;
    mutable reported_upto : int;
    mutable buffer_rev : (int * Online.emission) list;
    mutable acked : int;
    mutable applied : int;
    mutable rejected : int;
  }

  let create ~name ~subscription (config : Profile.config) =
    let feed = Feed.create ~config:config.feed ~window:config.window ~lambda:config.lambda config.mode in
    { name; subscription; config; quarantined = false; crashes = 0; feed; ckpt = Feed.checkpoint feed;
      ckpt_emit_seq = 0; ckpt_buffer = []; journal_rev = []; journal_n = 0; pending_q = Queue.create ();
      pending_n = 0; emit_seq = 0; reported_upto = 0; buffer_rev = []; acked = 0; applied = 0;
      rejected = 0 }

  let offer t post =
    if t.quarantined then invalid_arg "Profile.offer: profile is quarantined";
    Queue.push post t.pending_q;
    t.pending_n <- t.pending_n + 1;
    t.acked <- t.acked + 1

  let note_emissions t es =
    List.iter
      (fun e ->
        t.emit_seq <- t.emit_seq + 1;
        t.buffer_rev <- (t.emit_seq, e) :: t.buffer_rev)
      es

  let apply_post t post =
    match Feed.push t.feed post with
    | outcome -> note_emissions t outcome.Feed.emissions
    | exception Feed.Rejected _ -> t.rejected <- t.rejected + 1

  let recover t =
    let feed = Feed.restore t.ckpt in
    t.feed <- feed;
    let seq = ref t.ckpt_emit_seq and replayed_rev = ref [] in
    List.iter
      (fun post ->
        match Feed.push feed post with
        | outcome ->
          List.iter
            (fun e ->
              incr seq;
              if !seq > t.reported_upto then replayed_rev := (!seq, e) :: !replayed_rev)
            outcome.Feed.emissions
        | exception Feed.Rejected _ -> ())
      (List.rev t.journal_rev);
    t.emit_seq <- !seq;
    let kept = List.filter (fun (s, _) -> s > t.reported_upto) t.ckpt_buffer in
    t.buffer_rev <- !replayed_rev @ List.rev kept

  let checkpoint_now t =
    t.ckpt <- Feed.checkpoint t.feed;
    t.ckpt_emit_seq <- t.emit_seq;
    t.ckpt_buffer <- List.rev t.buffer_rev;
    t.journal_rev <- [];
    t.journal_n <- 0

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

  let process ~chaos ~budget t =
    let applied0 = t.applied in
    (try
       while (not t.quarantined) && t.pending_n > 0 do
         Util.Budget.step budget;
         if apply_with_recovery t ~chaos ~use_chaos:true (Queue.peek t.pending_q) then begin
           ignore (Queue.pop t.pending_q);
           t.pending_n <- t.pending_n - 1;
           t.applied <- t.applied + 1;
           if t.config.checkpoint_every > 0 && t.journal_n >= t.config.checkpoint_every then
             checkpoint_now t
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
      checkpoint_now t
    end

  let revive t =
    if t.quarantined then begin
      recover t;
      t.crashes <- 0;
      t.quarantined <- false
    end

  let blob t =
    let b = Buffer.create 1024 in
    let str s = Buffer.add_string b s
    and sp () = Buffer.add_char b ' '
    and nl () = Buffer.add_char b '\n' in
    let ints key ns = str key; List.iter (fun n -> sp (); Util.Fs.add_int b n) ns; nl () in
    let post_line p = str "p "; Feed.add_post b p; nl () in
    str "name "; Util.Fs.add_escaped b t.name; nl ();
    ints "flags" [ 0; Bool.to_int t.quarantined; t.crashes ];
    ints "counters" [ t.acked; t.applied; t.rejected ];
    ints "seqs" [ t.reported_upto; t.ckpt_emit_seq ];
    ints "limits" [ t.config.checkpoint_every; t.config.max_restarts ];
    str "sub "; Feed.add_labels b t.subscription; nl ();
    str "ckpt "; Util.Fs.add_escaped b t.ckpt; nl ();
    ints "cb" [ List.length t.ckpt_buffer ];
    List.iter
      (fun (seq, e) ->
        str "e "; Util.Fs.add_int b seq; sp (); Util.Fs.add_float_bits b e.Online.emit_time; sp ();
        Feed.add_post b e.Online.post; nl ())
      t.ckpt_buffer;
    ints "j" [ t.journal_n ];
    List.iter post_line (List.rev t.journal_rev);
    ints "pq" [ t.pending_n ];
    Queue.iter post_line t.pending_q;
    Buffer.contents b

  let of_blob s =
    let cur = Util.Fs.cursor s in
    let int = Util.Fs.int_field and expect = Util.Fs.expect cur in
    let bad what = Util.Fs.corrupt "bad %s line in profile blob" what in
    let name = Util.Fs.unescape (Util.Fs.field cur "name") in
    let quarantined, crashes =
      match expect "flags" with
      | [ _; q; c ] -> (int "flags" q = 1, int "crashes" c)
      | _ -> bad "flags"
    in
    let acked, applied, rejected =
      match expect "counters" with
      | [ a; p; r ] -> (int "acked" a, int "applied" p, int "rejected" r)
      | _ -> bad "counters"
    in
    let reported_upto, ckpt_emit_seq =
      match expect "seqs" with [ r; c ] -> (int "reported" r, int "checkpoint seq" c) | _ -> bad "seqs"
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
    let feed = Feed.restore ckpt in
    let engine = Feed.engine feed in
    let config =
      { Profile.lambda = Online.lambda engine; mode = Online.mode engine; feed = Feed.config feed;
        window = Option.is_some (Feed.window feed); checkpoint_every; max_restarts }
    in
    let pending_q = Queue.create () in
    List.iter (fun p -> Queue.push p pending_q) pending;
    let t =
      { name; subscription; config; quarantined; crashes; feed; ckpt; ckpt_emit_seq; ckpt_buffer;
        journal_rev = List.rev journal; journal_n = List.length journal; pending_q;
        pending_n = List.length pending; emit_seq = 0; reported_upto; buffer_rev = []; acked;
        applied; rejected }
    in
    recover t;
    t
end

type op =
  | Offer of Post.t
  | Process of int list * int option  (* calls that crash; step budget *)
  | Checkpoint
  | Report
  | Drain
  | Roundtrip
  | Revive

type profile_case = { config : Profile.config; ops : op list }

let gen_profile_case =
  let open QCheck.Gen in
  let policy = oneofl [ Feed.Drop; Feed.Clamp; Feed.Raise ] in
  let* reorder_window = int_range 0 4 and* late = policy and* duplicate = policy in
  let* window = bool and* checkpoint_every = int_range 0 6 and* max_restarts = int_range 0 2 in
  let* mode =
    oneof
      [ return Online.Instant;
        map2 (fun tau plus -> Online.Delayed { tau; plus }) (float_range 0. 3.) bool ]
  in
  let config =
    { Profile.lambda = 1.5; mode; window; checkpoint_every; max_restarts;
      feed = { Feed.default_config with reorder_window; late; duplicate } }
  in
  let* n = int_range 20 160 in
  let op i =
    frequency
      [ (10,
         let* id = oneof [ return i; int_range 0 (i + 1) ] in
         let* jitter = float_range 0. 2. in
         let* labels = list_size (int_range 1 2) (int_range 0 4) in
         return (Offer (mk id ((float_of_int i /. 3.) -. jitter) labels)));
        (4,
         let* crashes = list_size (int_range 0 2) (int_range 1 6) in
         let* budget = opt ~ratio:0.3 (int_range 1 5) in
         return (Process (crashes, budget)));
        (1, return Checkpoint);
        (2, return Report);
        (1, oneofl [ Drain; Roundtrip; Revive ]) ]
  in
  let* ops = flatten_l (List.init n op) in
  return { config; ops }

let print_op = function
  | Offer p -> Format.asprintf "offer %a" Post.pp p
  | Process (crashes, budget) ->
    Printf.sprintf "process crash@[%s]%s" (String.concat "," (List.map string_of_int crashes))
      (match budget with None -> "" | Some k -> Printf.sprintf " steps=%d" k)
  | Checkpoint -> "checkpoint"
  | Report -> "report"
  | Drain -> "drain"
  | Roundtrip -> "roundtrip"
  | Revive -> "revive"

let print_profile_case c =
  Printf.sprintf "checkpoint_every=%d max_restarts=%d window=%b reorder=%d\n%s"
    c.config.checkpoint_every c.config.max_restarts c.config.window
    c.config.feed.Feed.reorder_window (String.concat "\n" (List.map print_op c.ops))

(* A chaos hook raising on the given calls, counted from 1. *)
let chaos_on crashes =
  let calls = ref 0 in
  fun () ->
    incr calls;
    if List.mem !calls crashes then failwith "chaos"

let report_keys =
  List.map (fun (seq, e) ->
      (seq, e.Online.post.Post.id, Int64.bits_of_float e.Online.emit_time))

let profile_blob_property =
  qtest ~count:300 "profile blob = the earlier profile's, byte for byte"
    (QCheck.make ~print:print_profile_case gen_profile_case)
    (fun c ->
      let subscription = Mqdp.Label_set.of_list [ 0; 1; 2; 3; 4 ] in
      let p = ref (Profile.create ~name:"p q" ~subscription c.config) in
      let o = ref (Old_profile.create ~name:"p q" ~subscription c.config) in
      let budget = function
        | None -> Util.Budget.unlimited
        | Some k -> Util.Budget.create ~max_steps:k ()
      in
      List.iteri
        (fun i op ->
          let fail fmt = QCheck.Test.fail_reportf ("op %d (%s): " ^^ fmt) i (print_op op) in
          (match op with
          | Offer post -> (
            match (Profile.offer !p post, Old_profile.offer !o post) with
            | (), () -> ()
            | exception Invalid_argument _ ->
              if not (!o).Old_profile.quarantined then fail "offer refused by the new profile only")
          | Process (crashes, steps) ->
            let a = Profile.process ~chaos:(chaos_on crashes) ~budget:(budget steps) !p in
            let b = Old_profile.process ~chaos:(chaos_on crashes) ~budget:(budget steps) !o in
            if a <> b then fail "applied %d, the earlier profile %d" a b
          | Checkpoint ->
            Profile.checkpoint_now !p;
            Old_profile.checkpoint_now !o
          | Report ->
            if report_keys (Profile.take_report !p) <> report_keys (Old_profile.take_report !o) then
              fail "reports differ"
          | Drain ->
            Profile.drain !p;
            Old_profile.drain !o
          | Roundtrip ->
            p := Profile.of_blob (Profile.blob !p);
            o := Old_profile.of_blob (Old_profile.blob !o)
          | Revive ->
            Profile.revive !p;
            Old_profile.revive !o);
          let a = Profile.blob !p and b = Old_profile.blob !o in
          if not (String.equal a b) then fail "blob\n%s\nexpected\n%s" a b)
        c.ops;
      true)

(* --- Allocation ----------------------------------------------------- *)

(* Words [f] allocates beyond the string it returns, measured on its
   second call so that every scratch has reached its size. *)
let words_beyond_image f =
  ignore (f ());
  let before = Gc.allocated_bytes () in
  let image = f () in
  let spent = Gc.allocated_bytes () -. before in
  let image_words = 1 + ((String.length image + 8) / 8) in
  (int_of_float (spent /. 8.) - image_words, String.length image)

(* The constant beyond the image: the seal's callback, the id-list
   writers handed to the scratch, the window's guard triple and label
   writer, the last arrival's option — about 20 words, however large the
   feed. Each piece of the earlier gather cost more than the bound alone
   (sorting 300 ids: 301 words; the staged list: hundreds; boxing 500
   window values: 1000). *)
let bound_words = 64

let check_beyond_image what f =
  let words, bytes = words_beyond_image f in
  if words > bound_words then
    Alcotest.failf "%s allocated %d words beyond its %d-byte image (bound %d)" what words bytes
      bound_words

let test_instant_feed_checkpoint () =
  let feed = Feed.create ~lambda:2. Online.Instant in
  for i = 1 to 300 do
    ignore (Feed.push feed (mk i (float_of_int i) [ i mod 4; 4 + (i mod 3) ]))
  done;
  Alcotest.(check int) "a full reorder buffer" 64 (Feed.buffered feed);
  Alcotest.(check bool) "hundreds emitted" true (Online.emitted_count (Feed.engine feed) > 100);
  check_beyond_image "an instant feed's checkpoint" (fun () -> Feed.checkpoint feed)

(* Delayed, windowed, 600 posts in, about 500 of them live. *)
let test_windowed_feed_checkpoint () =
  let feed = Test_feed.big_window_feed ~seed:0 in
  let live = Mqdp.Window_index.size (Option.get (Feed.window feed)) in
  Alcotest.(check bool) (Printf.sprintf "about 500 live posts (%d)" live) true (live >= 450);
  check_beyond_image "a windowed feed's checkpoint" (fun () -> Feed.checkpoint feed)

(* Words [f ()] allocates once warm: the median of three calls. *)
let allocated_words f =
  f ();
  let once () =
    let before = Gc.allocated_bytes () in
    f ();
    int_of_float ((Gc.allocated_bytes () -. before) /. 8.)
  in
  match List.sort compare [ once (); once (); once () ] with
  | [ _; median; _ ] -> median
  | _ -> assert false

let instant_config =
  { Profile.default_config with mode = Online.Instant; window = false }

(* A profile and a bare feed given the same posts, so that the profile's
   own cost is the difference. *)
let profile_and_twin config =
  let p = Profile.create ~name:"n" ~subscription:(Mqdp.Label_set.of_list [ 0 ]) config in
  let twin = Feed.create ~config:config.feed ~window:config.window ~lambda:config.lambda config.mode in
  (p, twin)

(* An instant profile holding hundreds of unreported emissions: its
   checkpoint keeps them without copying the list, so it allocates what
   the feed's checkpoint does. *)
let test_profile_checkpoint () =
  let p, twin = profile_and_twin { instant_config with checkpoint_every = 0 } in
  for i = 1 to 400 do
    let post = mk i (100. *. float_of_int i) [ 0 ] in
    Profile.offer p post;
    ignore (Feed.push twin post)
  done;
  ignore (Profile.process p);
  Alcotest.(check bool) "hundreds unreported" true (Profile.unreported p > 300);
  let profile = allocated_words (fun () -> Profile.checkpoint_now p) in
  let feed = allocated_words (fun () -> ignore (Feed.checkpoint twin)) in
  if profile > feed + 8 then
    Alcotest.failf "checkpoint_now allocated %d words, its feed's checkpoint %d" profile feed

(* Offering and applying a post the engine covers allocates nothing:
   ten covered posts, offered and processed one at a time, allocate 0
   words. The post log has room for them (it grows only on a power of
   two), and no checkpoint falls among them. *)
let test_offer_process () =
  let p = Profile.create ~name:"n" ~subscription:(Mqdp.Label_set.of_list [ 0 ]) instant_config in
  let post i = mk i (float_of_int i /. 10.) [ 0 ] in
  for i = 1 to 100 do
    Profile.offer p (post i);
    ignore (Profile.process p)
  done;
  let unreported = Profile.unreported p in
  let words = ref 0 in
  for i = 101 to 110 do
    let x = post i in
    let before = Gc.minor_words () in
    Profile.offer p x;
    ignore (Profile.process p);
    words := !words + int_of_float (Gc.minor_words () -. before)
  done;
  Alcotest.(check int) "nothing released uncovered" unreported (Profile.unreported p);
  Alcotest.(check int) "words for ten covered posts" 0 !words

let suite =
  [
    feed_image_property;
    profile_blob_property;
    Alcotest.test_case "instant feed checkpoint allocates its image" `Quick
      test_instant_feed_checkpoint;
    Alcotest.test_case "windowed feed checkpoint allocates its image" `Quick
      test_windowed_feed_checkpoint;
    Alcotest.test_case "profile checkpoint allocates its feed's" `Quick test_profile_checkpoint;
    Alcotest.test_case "offer and process allocate only the post log's growth" `Quick
      test_offer_process;
  ]
