(* Serving layer: Profile durability, Shard supervision, Serve protocol.

   The differential fuzzer (mqdp_fuzz --serve) covers the bit-identical
   report guarantee under random crash/restart/retry interleavings; these
   tests pin the behaviors the crash-free oracle cannot model — admission
   control and degradation, quarantine and revival, request deadlines,
   sequence-cache eviction, and snapshot corruption handling. *)

let post = Helpers.post

exception Boom

(* --- Profile ------------------------------------------------------- *)

let profile ?(config = Mqdp.Profile.default_config) ?(labels = [ 1; 2 ]) name =
  Mqdp.Profile.create ~name ~subscription:(Mqdp.Label_set.of_list labels) config

let delayed tau = Mqdp.Online.Delayed { tau; plus = false }

let test_profile_offer_process () =
  let p =
    profile "alice"
      ~config:{ Mqdp.Profile.default_config with mode = delayed 2.; window = false }
  in
  Mqdp.Profile.offer p (post ~id:1 ~value:1.0 [ 1 ]);
  Mqdp.Profile.offer p (post ~id:2 ~value:2.0 [ 2 ]);
  Alcotest.(check int) "pending" 2 (Mqdp.Profile.pending p);
  Alcotest.(check int) "applied" 2 (Mqdp.Profile.process p);
  Alcotest.(check int) "drained" 0 (Mqdp.Profile.pending p);
  Alcotest.(check int) "acked" 2 (Mqdp.Profile.acked p);
  Mqdp.Profile.drain p;
  let report = Mqdp.Profile.take_report p in
  Alcotest.(check (list int)) "emitted ids" [ 1; 2 ]
    (List.map (fun (_, e) -> e.Mqdp.Online.post.Mqdp.Post.id) report);
  Alcotest.(check (list int)) "monotone seqs" [ 1; 2 ] (List.map fst report);
  Alcotest.(check (list pass)) "watermark advanced" []
    (Mqdp.Profile.take_report p)

let test_profile_quarantine_and_revive () =
  let config =
    { Mqdp.Profile.default_config with max_restarts = 2; window = false;
      mode = Mqdp.Online.Instant }
  in
  let p = profile "bob" ~config ~labels:[ 1; 2; 3 ] in
  List.iter (fun i -> Mqdp.Profile.offer p (post ~id:i ~value:(float_of_int i) [ i ]))
    [ 1; 2; 3 ];
  (* A chaos hook that fails every time: each application crashes once,
     recovers, and retries chaos-free — so progress continues until the
     crash count passes max_restarts and the profile quarantines. *)
  ignore (Mqdp.Profile.process ~chaos:(fun () -> raise Boom) p);
  Alcotest.(check bool) "quarantined" true (Mqdp.Profile.quarantined p);
  Alcotest.check_raises "offer refused while quarantined"
    (Invalid_argument "Profile.offer: profile is quarantined") (fun () ->
      Mqdp.Profile.offer p (post ~id:9 ~value:1.0 [ 1 ]));
  let pending_before = Mqdp.Profile.pending p in
  Mqdp.Profile.revive p;
  Alcotest.(check bool) "revived" false (Mqdp.Profile.quarantined p);
  Alcotest.(check int) "crash counter reset" 0 (Mqdp.Profile.crashes p);
  Alcotest.(check int) "pending survived quarantine" pending_before
    (Mqdp.Profile.pending p);
  ignore (Mqdp.Profile.process p);
  Mqdp.Profile.drain p;
  Alcotest.(check int) "no acknowledged post lost" 3
    (List.length (Mqdp.Profile.take_report p))

let test_profile_budget_is_not_a_crash () =
  let p = profile "carol" ~config:{ Mqdp.Profile.default_config with window = false } in
  List.iter (fun i -> Mqdp.Profile.offer p (post ~id:i ~value:1.0 [ 1 ]))
    [ 1; 2; 3; 4 ];
  (* [Budget.step] charges before each application and exhaustion is
     checked after the charge, so a 3-step budget applies 2 posts. *)
  let budget = Util.Budget.create ~max_steps:3 () in
  Alcotest.(check int) "stopped at the budget" 2 (Mqdp.Profile.process ~budget p);
  Alcotest.(check int) "remainder still pending" 2 (Mqdp.Profile.pending p);
  Alcotest.(check int) "exhaustion is backpressure, not a crash" 0
    (Mqdp.Profile.crashes p);
  Alcotest.(check bool) "not quarantined" false (Mqdp.Profile.quarantined p)

(* A profile's unreported emissions, bit patterns included. *)
let report p =
  List.map
    (fun (s, e) ->
      Printf.sprintf "%d:%d:%Lx" s e.Mqdp.Online.post.Mqdp.Post.id
        (Int64.bits_of_float e.Mqdp.Online.emit_time))
    (Mqdp.Profile.take_report p)

let test_profile_blob_roundtrip () =
  let config =
    { Mqdp.Profile.default_config with mode = delayed 5.; window = false;
      checkpoint_every = 2 }
  in
  let p = profile "dave" ~config ~labels:[ 3; 4 ] in
  List.iteri (fun i v -> Mqdp.Profile.offer p (post ~id:(i + 1) ~value:v [ 3 ]))
    [ 1.0; 2.5; 0.25 ];
  ignore (Mqdp.Profile.process p);
  Mqdp.Profile.offer p (post ~id:7 ~value:3.0 [ 4 ]);
  let q = Mqdp.Profile.of_blob (Mqdp.Profile.blob p) in
  Alcotest.(check string) "name" (Mqdp.Profile.name p) (Mqdp.Profile.name q);
  Alcotest.(check int) "pending" (Mqdp.Profile.pending p) (Mqdp.Profile.pending q);
  Alcotest.(check int) "acked" (Mqdp.Profile.acked p) (Mqdp.Profile.acked q);
  Alcotest.(check int) "unreported" (Mqdp.Profile.unreported p)
    (Mqdp.Profile.unreported q);
  (* Finishing both incarnations must produce identical reports: the
     restored feed replays to the same state bit for bit. *)
  ignore (Mqdp.Profile.process p);
  ignore (Mqdp.Profile.process q);
  Mqdp.Profile.drain p;
  Mqdp.Profile.drain q;
  Alcotest.(check (list string)) "identical reports" (report p) (report q)

(* --- Shard --------------------------------------------------------- *)

let test_shard_sheds_at_capacity () =
  let shard = Mqdp.Shard.create { Mqdp.Shard.queue_capacity = 2; tick_steps = None } in
  let p =
    profile "erin" ~config:{ Mqdp.Profile.default_config with window = false }
  in
  Mqdp.Shard.add shard p;
  Alcotest.(check bool) "first accepted" true
    (Mqdp.Shard.offer shard p (post ~id:1 ~value:1.0 [ 1 ]));
  Alcotest.(check bool) "second accepted" true
    (Mqdp.Shard.offer shard p (post ~id:2 ~value:1.0 [ 1 ]));
  Alcotest.(check bool) "third shed" false
    (Mqdp.Shard.offer shard p (post ~id:3 ~value:1.0 [ 1 ]));
  let c = Mqdp.Shard.counters shard in
  Alcotest.(check int) "acked" 2 c.Mqdp.Shard.acked;
  Alcotest.(check int) "shed" 1 c.Mqdp.Shard.shed;
  ignore (Mqdp.Shard.tick shard);
  Alcotest.(check int) "backlog drained" 0 (Mqdp.Shard.backlog shard);
  Alcotest.(check bool) "capacity freed" true
    (Mqdp.Shard.offer shard p (post ~id:4 ~value:1.0 [ 1 ]))

let test_shard_snapshot_roundtrip_and_corruption () =
  let shard = Mqdp.Shard.create { Mqdp.Shard.queue_capacity = 64; tick_steps = None } in
  let p =
    profile "frank" ~config:{ Mqdp.Profile.default_config with window = false }
  in
  Mqdp.Shard.add shard p;
  ignore (Mqdp.Shard.offer shard p (post ~id:1 ~value:1.0 [ 1 ]));
  ignore (Mqdp.Shard.tick shard);
  ignore (Mqdp.Shard.offer shard p (post ~id:2 ~value:2.0 [ 2 ]));
  let snap = Mqdp.Shard.snapshot shard in
  let restored = Mqdp.Shard.restore snap in
  Alcotest.(check int) "profiles" 1 (Mqdp.Shard.profile_count restored);
  Alcotest.(check int) "backlog recomputed" 1 (Mqdp.Shard.backlog restored);
  let c = Mqdp.Shard.counters restored and c0 = Mqdp.Shard.counters shard in
  Alcotest.(check int) "acked carried" c0.Mqdp.Shard.acked c.Mqdp.Shard.acked;
  (* Any flipped byte in the body must fail the checksum. *)
  let damaged = Bytes.of_string snap in
  let i = String.length snap / 2 in
  Bytes.set damaged i (Char.chr (Char.code (Bytes.get damaged i) lxor 1));
  (match Mqdp.Shard.restore (Bytes.to_string damaged) with
  | _ -> Alcotest.fail "corrupt snapshot accepted"
  | exception Util.Fs.Corrupt _ -> ());
  match Mqdp.Shard.restore "mqdp-shard-snapshot v999\n" with
  | _ -> Alcotest.fail "bad header accepted"
  | exception Util.Fs.Unsupported_version { found = "v999"; expected = 2 } -> ()

(* Posts a profile acknowledged but has not admitted yet may carry any
   timestamp: the non-finite policy only runs when they are applied. *)
let test_non_finite_posts_roundtrip () =
  let shard = Mqdp.Shard.create { Mqdp.Shard.queue_capacity = 64; tick_steps = None } in
  let p = profile "nina" ~config:{ Mqdp.Profile.default_config with mode = delayed 5.; window = false } in
  Mqdp.Shard.add shard p;
  let raw ~id value = { Mqdp.Post.id; value; labels = Mqdp.Label_set.of_list [ 1 ] } in
  let offer q = ignore (Mqdp.Shard.offer shard p q) in
  offer (post ~id:1 ~value:1.0 [ 1 ]);
  offer (raw ~id:2 Float.neg_infinity);
  ignore (Mqdp.Shard.tick shard);
  (* Journaled (and dropped by the default policy): id 2. Pending: 3-5. *)
  offer (raw ~id:3 Float.nan);
  offer (raw ~id:4 Float.infinity);
  offer (post ~id:5 ~value:2.0 [ 2 ]);
  let restored = Mqdp.Shard.restore (Mqdp.Shard.snapshot shard) in
  let q =
    match Mqdp.Shard.find restored "nina" with
    | Some q -> q
    | None -> Alcotest.fail "profile lost across the snapshot"
  in
  Alcotest.(check string) "identical durable state" (Mqdp.Profile.blob p) (Mqdp.Profile.blob q);
  Alcotest.(check int) "pending" 3 (Mqdp.Profile.pending q);
  let finish shard profile =
    ignore (Mqdp.Shard.tick shard);
    Mqdp.Profile.drain profile;
    report profile
  in
  Alcotest.(check (list string)) "identical reports" (finish shard p) (finish restored q);
  Alcotest.(check int) "applied" (Mqdp.Profile.applied p) (Mqdp.Profile.applied q)

(* --- Sealed images ------------------------------------------------- *)

let pin_feed window =
  let f =
    Mqdp.Feed.create
      ~config:{ Mqdp.Feed.default_config with reorder_window = 2 }
      ~window ~lambda:3.
      (Mqdp.Online.Delayed { tau = 1.5; plus = true })
  in
  List.iter
    (fun p -> ignore (Mqdp.Feed.push f p))
    [ post ~id:1 ~value:0.5 [ 0 ]; post ~id:2 ~value:2. [ 0; 1 ]; post ~id:3 ~value:1. [ 1 ];
      post ~id:4 ~value:4.25 [ 2 ]; post ~id:2 ~value:5. [ 0 ] ];
  f

(* Pinned byte for byte, not merely round-trippable: every profile keeps
   its feed's checkpoint in memory, and shard snapshots embed it. *)
let pinned_checkpoint_head =
  "mqdp-feed-checkpoint v2\nconfig 2 drop drop drop none\ncounters 4 2 1 0 0 1 0 0 0 0\n\
   watermark 3ff0000000000000 4011000000000000\nseen 4 1 2 3 4\nbuffer 2\n\
   p 2 4000000000000000 0,1\np 4 4011000000000000 2\n\
   engine 4008000000000000 delayed 3ff8000000000000 1\nlast 3ff0000000000000\n\
   emitted 0 \ndegraded 0 \nlabels 2\nlabel 0 1\nlast none\np 1 3fe0000000000000 0\n\
   label 1 1\nlast none\np 3 3ff0000000000000 1\n"

let pinned_plain = pinned_checkpoint_head ^ "window none\nchecksum 62ff923d3fde62c3\n"

let pinned_windowed =
  pinned_checkpoint_head
  ^ "window 0 2 1 3ff0000000000000 3\np 1 3fe0000000000000 0\np 3 3ff0000000000000 1\n\
     checksum e313fc86c9e28aaa\n"

let test_sealed_images () =
  let shard = Mqdp.Shard.create { Mqdp.Shard.queue_capacity = 8; tick_steps = Some 4 } in
  let p = profile "olga" in
  Mqdp.Shard.add shard p;
  ignore (Mqdp.Shard.offer shard p (post ~id:1 ~value:1.0 [ 1 ]));
  let serve = Mqdp.Serve.create { Mqdp.Serve.default_config with Mqdp.Serve.shards = 3 } in
  let manifest = Mqdp.Serve.manifest ~extra:[ ("epoch", 4); ("journal", 9) ] serve in
  Mqdp.Serve.shutdown serve;
  List.iter
    (fun (kind, image, parse) ->
      let check what expected s =
        Alcotest.(check string) (kind ^ ": " ^ what) expected
          (match parse s with
          | _ -> "ok"
          | exception Util.Fs.Corrupt _ -> "corrupt"
          | exception Util.Fs.Unsupported_version { found; expected } ->
            Printf.sprintf "%s, not v%d" found expected)
      in
      let edit i f =
        let b = Bytes.of_string image in
        Bytes.set b i (f (Bytes.get b i));
        Bytes.to_string b
      in
      check "intact" "ok" image;
      check "a flipped byte" "corrupt"
        (edit (String.length image / 2) (fun c -> Char.chr (Char.code c lxor 1)));
      (* Every kind is at v2: "<magic> v2\n<body>checksum <16 hex>\n". *)
      let nl = String.index image '\n' in
      let magic = String.sub image 0 (nl - 3) in
      let body = String.sub image (nl + 1) (String.length image - nl - 27) in
      List.iter
        (fun v ->
          check (Printf.sprintf "re-sealed as v%d" v) (Printf.sprintf "v%d, not v2" v)
            (Util.Fs.seal ~magic ~version:v (fun b -> Buffer.add_string b body)))
        [ 1; 3; 999 ];
      check "version edited without re-sealing" "corrupt" (edit (nl - 1) (fun _ -> '9')))
    [
      ("feed checkpoint", Mqdp.Feed.checkpoint (pin_feed true), fun s -> ignore (Mqdp.Feed.restore s));
      ("shard snapshot", Mqdp.Shard.snapshot shard, fun s -> ignore (Mqdp.Shard.restore s));
      ("manifest", manifest, fun s -> ignore (Mqdp.Serve.parse_manifest s));
    ];
  Alcotest.(check string) "plain checkpoint bytes" pinned_plain (Mqdp.Feed.checkpoint (pin_feed false));
  Alcotest.(check string) "windowed checkpoint bytes" pinned_windowed
    (Mqdp.Feed.checkpoint (pin_feed true));
  List.iter
    (fun (name, shards, want) ->
      Alcotest.(check int) (Printf.sprintf "shard_of_name %S mod %d" name shards) want
        (Mqdp.Serve.shard_of_name ~shards name))
    [ ("alice", 4, 3); ("bob", 4, 0); ("carol", 7, 5); ("", 3, 0); ("profile-17", 16, 13) ]

(* --- Serve --------------------------------------------------------- *)

let serve_config =
  { Mqdp.Serve.default_config with Mqdp.Serve.shards = 2; seq_cache = 4 }

let with_serve ?(config = serve_config) f =
  let t = Mqdp.Serve.create config in
  Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t) (fun () -> f t)

let last t line =
  match Mqdp.Serve.exec t line with
  | [] -> Alcotest.fail "no response"
  | lines -> List.nth lines (List.length lines - 1)

let check_resp what expected t line =
  Alcotest.(check string) what expected (last t line)

let test_serve_admission () =
  let config =
    { serve_config with Mqdp.Serve.max_profiles = 3; degrade_above = 2 }
  in
  with_serve ~config @@ fun t ->
  check_resp "first" "1 OK added" t "1 ADD a 60 delayed:30 1,2";
  check_resp "duplicate" "2 ERR duplicate-profile profile \"a\" already exists" t
    "2 ADD a 60 instant 1";
  check_resp "second" "3 OK added" t "3 ADD b 60 instant 2";
  (* Beyond the soft ceiling admission degrades; at the hard ceiling it
     refuses with a typed error the client can act on. *)
  check_resp "degraded" "4 OK added degraded" t "4 ADD c 60 delayed:30 3";
  check_resp "full" "5 ERR capacity at 3 profiles" t "5 ADD d 60 instant 4";
  Alcotest.(check int) "profile count" 3 (Mqdp.Serve.profile_count t)

let test_serve_idempotent_retry_and_stale_seq () =
  with_serve @@ fun t ->
  check_resp "add" "1 OK added" t "1 ADD a 60 delayed:2 1";
  let first = Mqdp.Serve.exec t "2 FEED 10 1.0 1" in
  Alcotest.(check (list string)) "verbatim retry replays the cache" first
    (Mqdp.Serve.exec t "2 FEED 10 1.0 1");
  check_resp "retried FEED did not deliver twice" "3 OK applied=1 backlog=0" t
    "3 TICK";
  (* Push the watermark past the cache (seq_cache = 4) and the earliest
     sequence is refused rather than silently re-executed. *)
  List.iter (fun s -> ignore (Mqdp.Serve.exec t (Printf.sprintf "%d PING" s)))
    [ 4; 5; 6; 7; 8 ];
  check_resp "evicted seq refused" "2 ERR stale-seq sequence 2 below watermark 8"
    t "2 FEED 10 1.0 1";
  check_resp "bad seq" "ERR parse bad sequence number" t "zero PING";
  check_resp "unknown verb" "9 ERR parse unknown or malformed command \"BOGUS\""
    t "9 BOGUS"

let test_serve_request_deadline () =
  let config = { serve_config with Mqdp.Serve.request_deadline = Some 0. } in
  with_serve ~config @@ fun t ->
  match String.split_on_char ' ' (last t "1 PING") with
  | "1" :: "ERR" :: "deadline" :: _ -> ()
  | _ -> Alcotest.fail "expected ERR deadline under a zero request deadline"

let test_serve_feed_fanout_and_shed () =
  let config = { serve_config with Mqdp.Serve.queue_capacity = 1 } in
  with_serve ~config @@ fun t ->
  check_resp "a" "1 OK added" t "1 ADD a 60 instant 1,2";
  check_resp "b" "2 OK added" t "2 ADD b 60 instant 2,3";
  check_resp "c" "3 OK added" t "3 ADD c 60 instant 7";
  (* Label 2 reaches a and b; label 7 reaches only c; label 9 nobody.
     With per-shard capacity 1, a second post to the same shard sheds. *)
  let r1 = last t "4 FEED 100 1.0 2" in
  (match String.split_on_char ' ' r1 with
  | [ "4"; "OK"; d; s ] ->
    Scanf.sscanf (d ^ " " ^ s) "delivered=%d shed=%d" (fun d s ->
        Alcotest.(check int) "delivered+shed covers both subscribers" 2 (d + s))
  | _ -> Alcotest.fail ("unexpected FEED response " ^ r1));
  check_resp "no subscriber" "5 OK delivered=0 shed=0" t "5 FEED 101 2.0 9";
  ignore (Mqdp.Serve.exec t "6 TICK");
  Alcotest.(check int) "backlog clears" 0 (Mqdp.Serve.backlog t)

let test_serve_restart_preserves_acked () =
  with_serve @@ fun t ->
  check_resp "add" "1 OK added" t "1 ADD a 60 delayed:2 1";
  check_resp "feed" "2 OK delivered=1 shed=0" t "2 FEED 100 1.0 1";
  (* Restart both shards with the post still acknowledged-but-unapplied:
     the journal is durable, so nothing is lost. *)
  Mqdp.Serve.restart_shard t 0;
  Mqdp.Serve.restart_shard t 1;
  Alcotest.(check int) "restarts counted" 2 (Mqdp.Serve.restarts t);
  check_resp "tick applies the journal" "3 OK applied=1 backlog=0" t "3 TICK";
  check_resp "drain" "4 OK drained=1" t "4 DRAIN a";
  match Mqdp.Serve.exec t "5 REPORT a" with
  | [ emit; ok ] ->
    Alcotest.(check string) "count" "5 OK 1" ok;
    (match String.split_on_char ' ' emit with
    | [ "5"; "EMIT"; _; "100"; _ ] -> ()
    | _ -> Alcotest.fail ("unexpected EMIT line " ^ emit))
  | lines ->
    Alcotest.fail (Printf.sprintf "expected EMIT + OK, got %d lines"
        (List.length lines))

let test_serve_quarantine_restore () =
  let config = { serve_config with Mqdp.Serve.max_restarts = 1 } in
  with_serve ~config @@ fun t ->
  check_resp "add" "1 OK added" t "1 ADD a 60 instant 1,2";
  check_resp "feed" "2 OK delivered=1 shed=0" t "2 FEED 100 1.0 1";
  check_resp "feed" "3 OK delivered=1 shed=0" t "3 FEED 101 2.0 2";
  Mqdp.Serve.set_chaos t (Some (fun () -> raise Boom));
  (* Every application crashes once (the retry is chaos-free): the first
     recovery is within max_restarts = 1, the second quarantines the
     profile with the second post still durably pending. *)
  check_resp "tick quarantines mid-stream" "4 OK applied=1 backlog=1" t "4 TICK";
  check_resp "quarantined profiles shed" "5 OK delivered=0 shed=1" t
    "5 FEED 102 3.0 1";
  (match String.split_on_char ' ' (last t "6 QUERY a") with
  | "6" :: "ERR" :: "quarantined" :: _ -> ()
  | other -> Alcotest.fail ("expected ERR quarantined, got " ^ String.concat " " other));
  Mqdp.Serve.set_chaos t None;
  check_resp "restore revives" "7 OK restored" t "7 RESTORE a";
  check_resp "restore is idempotent" "8 OK restored" t "8 RESTORE a";
  check_resp "tick applies the surviving journal" "9 OK applied=1 backlog=0" t
    "9 TICK";
  check_resp "drain" "10 OK drained=1" t "10 DRAIN a";
  check_resp "nothing acknowledged was lost" "11 OK 2"
    t "11 REPORT a"

let test_serve_stats_shape () =
  with_serve @@ fun t ->
  check_resp "add" "1 OK added" t "1 ADD a 60 instant 1";
  check_resp "feed" "2 OK delivered=1 shed=0" t "2 FEED 100 1.0 1";
  ignore (Mqdp.Serve.exec t "3 TICK");
  match Mqdp.Serve.exec t "4 STATS" with
  | [ line ] ->
    let prefix = "4 OK " in
    Alcotest.(check bool) "prefixed" true (String.starts_with ~prefix line);
    let json = String.sub line (String.length prefix)
        (String.length line - String.length prefix) in
    let contains needle =
      let n = String.length needle and m = String.length json in
      let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
      go 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool) (needle ^ " present") true (contains needle))
      [ {json|"profiles":1|json}; {json|"acked":1|json}; {json|"applied":1|json};
        {json|"backlog":0|json}; {json|"telemetry":|json} ]
  | _ -> Alcotest.fail "STATS must answer in exactly one line"

(* --- Sessions: bounds and durability -------------------------------- *)

let with_state_dir f =
  let dir = Filename.temp_dir "mqdp_serve" ".state" in
  Fun.protect ~finally:(fun () -> Util.Fs.remove_tree dir) (fun () -> f dir)

let sessions_gauge () =
  List.find_map
    (function
      | Util.Telemetry.Gauge_entry ("serve.sessions", v) -> Some v
      | _ -> None)
    (Util.Telemetry.snapshot ())

let test_serve_session_bounds () =
  (* Telemetry is process-global: enable for the gauge assertions and
     restore the disabled resting state (same idiom as test_telemetry). *)
  Util.Telemetry.reset ();
  Util.Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Util.Telemetry.disable ();
      Util.Telemetry.reset ())
  @@ fun () ->
  let config =
    { serve_config with Mqdp.Serve.max_sessions = 3; session_ttl = Some 60. }
  in
  with_serve ~config @@ fun t ->
  let a = Mqdp.Serve.session t ~id:"a" in
  ignore (Mqdp.Serve.exec_on t a "5 PING");
  Unix.sleepf 0.002;
  ignore (Mqdp.Serve.exec_on t (Mqdp.Serve.session t ~id:"b") "1 PING");
  Unix.sleepf 0.002;
  ignore (Mqdp.Serve.exec_on t (Mqdp.Serve.session t ~id:"c") "1 PING");
  Unix.sleepf 0.002;
  (* The table is at the cap: a fourth id evicts the least recently
     touched ("a"), never growing past max_sessions. *)
  let d = Mqdp.Serve.session t ~id:"d" in
  Alcotest.(check int) "table stays at the cap" 3 (Mqdp.Serve.session_count t);
  Alcotest.(check int) "new session starts fresh" 0 (Mqdp.Serve.session_seq d);
  Alcotest.(check (option int)) "serve.sessions gauge tracks the table"
    (Some 3) (sessions_gauge ());
  let a' = Mqdp.Serve.session t ~id:"a" in
  Alcotest.(check bool) "the evicted LRU came back as a fresh session" false
    (a == a');
  Alcotest.(check int) "its watermark was reset" 0 (Mqdp.Serve.session_seq a');
  Alcotest.(check int) "still at the cap" 3 (Mqdp.Serve.session_count t);
  (* Idle-TTL: pinning the clock past the deadline sweeps everything
     idle; the gauge follows. *)
  let now = Util.Timer.now () in
  Alcotest.(check int) "nothing is idle yet" 0
    (Mqdp.Serve.sweep_sessions ~now t);
  Alcotest.(check int) "everything idle past the TTL is swept" 3
    (Mqdp.Serve.sweep_sessions ~now:(now +. 61.) t);
  Alcotest.(check int) "table empty after the sweep" 0
    (Mqdp.Serve.session_count t);
  Alcotest.(check (option int)) "gauge back to zero" (Some 0)
    (sessions_gauge ())

let test_serve_journal_recovery () =
  with_state_dir @@ fun dir ->
  let t = Mqdp.Serve.create serve_config in
  Mqdp.Serve.attach_journal ~fsync:false t ~dir ~covered:0;
  let s = Mqdp.Serve.session t ~id:"k" in
  ignore (Mqdp.Serve.exec_on t s "1 ADD a 60 delayed:2 1");
  let feed = Mqdp.Serve.exec_on t s "2 FEED 100 1.0 1" in
  (* kill -9: no drain, no snapshot, no compaction. *)
  Mqdp.Serve.shutdown t;
  let t2 = Mqdp.Serve.create serve_config in
  Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t2) @@ fun () ->
  Mqdp.Serve.attach_journal ~fsync:false t2 ~dir ~covered:0;
  let s2 = Mqdp.Serve.session t2 ~id:"k" in
  Alcotest.(check int) "watermark survives the restart" 2
    (Mqdp.Serve.session_seq s2);
  Alcotest.(check (list string))
    "the unacked FEED retry replays the recorded response" feed
    (Mqdp.Serve.exec_on t2 s2 "2 FEED 100 1.0 1");
  (* applied=1, not 2: the replayed redo executed the FEED exactly once
     and the retry came from the cache. *)
  Alcotest.(check (list string)) "no double delivery"
    [ "3 OK applied=1 backlog=0" ]
    (Mqdp.Serve.exec_on t2 s2 "3 TICK")

(* Every byte boundary of the journal append, plus a crash inside
   compaction: whatever the death leaves on disk, reboot + verbatim retry
   must execute the command exactly once. *)
let test_serve_journal_crash_points () =
  let try_crash_at k =
    with_state_dir @@ fun dir ->
    let t = Mqdp.Serve.create serve_config in
    Mqdp.Serve.attach_journal ~fsync:false t ~dir ~covered:0;
    let s = Mqdp.Serve.session t ~id:"k" in
    ignore (Mqdp.Serve.exec_on t s "1 ADD a 60 delayed:2 1");
    Mqdp.Serve.set_journal_crash_after t (Some k);
    let crashed =
      match Mqdp.Serve.exec_on t s "2 FEED 100 1.0 1" with
      | _ -> false
      | exception Util.Fs.Crashed _ -> true
    in
    Mqdp.Serve.shutdown t;
    let t2 = Mqdp.Serve.create serve_config in
    Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t2) @@ fun () ->
    Mqdp.Serve.attach_journal ~fsync:false t2 ~dir ~covered:0;
    let s2 = Mqdp.Serve.session t2 ~id:"k" in
    Alcotest.(check (list string))
      (Printf.sprintf "retry after a tear at byte %d answers once" k)
      [ "2 OK delivered=1 shed=0" ]
      (Mqdp.Serve.exec_on t2 s2 "2 FEED 100 1.0 1");
    Alcotest.(check (list string))
      (Printf.sprintf "exactly one delivery after a tear at byte %d" k)
      [ "3 OK applied=1 backlog=0" ]
      (Mqdp.Serve.exec_on t2 s2 "3 TICK");
    crashed
  in
  (* Small offsets always tear (the record is far longer); a huge one
     writes the record whole and must not crash. *)
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "crash_after %d tears the append" k)
        true (try_crash_at k))
    [ 0; 1; 2; 17; 18; 19; 30 ];
  Alcotest.(check bool) "a crash point past the record is a clean append"
    false
    (try_crash_at 1_000_000)

let test_serve_compaction_crash () =
  with_state_dir @@ fun dir ->
  let t = Mqdp.Serve.create serve_config in
  Mqdp.Serve.attach_journal ~fsync:false t ~dir ~covered:0;
  let s = Mqdp.Serve.session t ~id:"k" in
  ignore (Mqdp.Serve.exec_on t s "1 ADD a 60 delayed:2 1");
  ignore (Mqdp.Serve.exec_on t s "2 FEED 100 1.0 1");
  let covered = Mqdp.Serve.journal_gsn t in
  (* The compaction rewrite dies mid-write: the old journal must be
     intact, and a reboot from it loses nothing. *)
  (match Mqdp.Serve.compact_journal ~crash_after:9 t with
  | () -> Alcotest.fail "compaction crash_after did not crash"
  | exception Util.Fs.Crashed _ -> ());
  Mqdp.Serve.shutdown t;
  let t2 = Mqdp.Serve.create serve_config in
  Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t2) @@ fun () ->
  ignore (Util.Fs.sweep_temps dir);
  Mqdp.Serve.attach_journal ~fsync:false t2 ~dir ~covered:0;
  let s2 = Mqdp.Serve.session t2 ~id:"k" in
  Alcotest.(check int) "watermark intact after the compaction crash" 2
    (Mqdp.Serve.session_seq s2);
  Alcotest.(check int) "gsn intact after the compaction crash" covered
    (Mqdp.Serve.journal_gsn t2);
  Alcotest.(check (list string)) "no delivery was lost or doubled"
    [ "3 OK applied=1 backlog=0" ]
    (Mqdp.Serve.exec_on t2 s2 "3 TICK")

(* Property: a session that lived through a daemon death and journal
   replay is bit-identical — every response, including the retried one —
   to the same script against an engine that never crashed (and never
   journaled). The seed drives both the script shape and where the death
   lands; half the deaths also tear the journal append itself. *)
let serve_replay_equiv =
  Helpers.qtest ~count:60 "journal replay is bit-identical to no crash"
    QCheck.(int_range 0 1_000_000)
  @@ fun seed ->
  let script_of rng =
    let n = 6 + Util.Rng.int rng 10 in
    List.init n (fun i ->
        let body =
          match Util.Rng.int rng 5 with
          | 0 when i = 0 -> "ADD a 60 delayed:2 1"
          | 0 -> Printf.sprintf "ADD p%d 60 instant 1,2" i
          | 1 | 2 ->
            Printf.sprintf "FEED %d %d.5 %d" (100 + i) i (1 + Util.Rng.int rng 2)
          | 3 -> "TICK"
          | _ -> if Util.Rng.bool rng then "REPORT a" else "PING"
        in
        Printf.sprintf "%d %s" (i + 1) body)
  in
  let rng = Util.Rng.create (0x5EED + seed) in
  let script = "1 ADD a 60 delayed:2 1" :: List.tl (script_of rng) in
  let die_at = Util.Rng.int rng (List.length script) in
  let tear = Util.Rng.bool rng in
  let baseline =
    let t = Mqdp.Serve.create serve_config in
    Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown t) @@ fun () ->
    let s = Mqdp.Serve.session t ~id:"q" in
    List.map (Mqdp.Serve.exec_on t s) script
  in
  let crashed =
    with_state_dir @@ fun dir ->
    let engine = ref (Mqdp.Serve.create serve_config) in
    Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown !engine) @@ fun () ->
    Mqdp.Serve.attach_journal ~fsync:false !engine ~dir ~covered:0;
    let session = ref (Mqdp.Serve.session !engine ~id:"q") in
    let reboot () =
      Mqdp.Serve.shutdown !engine;
      engine := Mqdp.Serve.create serve_config;
      ignore (Util.Fs.sweep_temps dir);
      Mqdp.Serve.attach_journal ~fsync:false !engine ~dir ~covered:0;
      session := Mqdp.Serve.session !engine ~id:"q"
    in
    List.mapi
      (fun i line ->
        if i = die_at && tear then
          Mqdp.Serve.set_journal_crash_after !engine (Some (Util.Rng.int rng 8));
        match Mqdp.Serve.exec_on !engine !session line with
        | response ->
          if i = die_at then begin
            (* Death between execution and acknowledgment: the retry must
               replay the recorded response. *)
            reboot ();
            Mqdp.Serve.exec_on !engine !session line
          end
          else response
        | exception Util.Fs.Crashed _ ->
          (* The append tore: reboot truncates it and the retry
             re-executes against replayed pre-command state. *)
          reboot ();
          Mqdp.Serve.exec_on !engine !session line)
      script
  in
  List.for_all2 (List.equal String.equal) baseline crashed

let suite =
  [
    Alcotest.test_case "profile offers, processes, reports" `Quick
      test_profile_offer_process;
    Alcotest.test_case "profile quarantines and revives without loss" `Quick
      test_profile_quarantine_and_revive;
    Alcotest.test_case "budget exhaustion is backpressure, not a crash" `Quick
      test_profile_budget_is_not_a_crash;
    Alcotest.test_case "profile blob round-trips bit-identically" `Quick
      test_profile_blob_roundtrip;
    Alcotest.test_case "shard sheds at capacity and frees after tick" `Quick
      test_shard_sheds_at_capacity;
    Alcotest.test_case "shard snapshot round-trips; corruption is refused" `Quick
      test_shard_snapshot_roundtrip_and_corruption;
    Alcotest.test_case "non-finite pending posts survive a shard snapshot" `Quick
      test_non_finite_posts_roundtrip;
    Alcotest.test_case "sealed images: damage, version skew, pinned bytes" `Quick
      test_sealed_images;
    Alcotest.test_case "admission: duplicate, degrade, capacity" `Quick
      test_serve_admission;
    Alcotest.test_case "idempotent retry and stale-seq eviction" `Quick
      test_serve_idempotent_retry_and_stale_seq;
    Alcotest.test_case "request deadline produces ERR deadline" `Quick
      test_serve_request_deadline;
    Alcotest.test_case "feed fanout, shedding, and empty matches" `Quick
      test_serve_feed_fanout_and_shed;
    Alcotest.test_case "shard restarts preserve acknowledged posts" `Quick
      test_serve_restart_preserves_acked;
    Alcotest.test_case "quarantine sheds; RESTORE revives without loss" `Quick
      test_serve_quarantine_restore;
    Alcotest.test_case "STATS answers one JSON line" `Quick test_serve_stats_shape;
    Alcotest.test_case "session table: LRU cap, idle TTL, gauge" `Quick
      test_serve_session_bounds;
    Alcotest.test_case "journal recovery: watermark + cached responses" `Quick
      test_serve_journal_recovery;
    Alcotest.test_case "journal crash points: exactly-once at every byte"
      `Quick test_serve_journal_crash_points;
    Alcotest.test_case "compaction crash leaves the journal usable" `Quick
      test_serve_compaction_crash;
    serve_replay_equiv;
  ]
