(* The fault-tolerant ingestion frontend: reorder buffer, fault policies,
   overload degradation, and checkpoint/restore. *)

open Helpers

let mk id value labels = post ~id ~value labels

let delayed ?(plus = false) ~tau () = Mqdp.Online.Delayed { tau; plus }

let key e =
  (e.Mqdp.Online.post.Mqdp.Post.id, Int64.bits_of_float e.Mqdp.Online.emit_time)

let keys es = List.map key es

let emission_keys = Alcotest.(list (pair int int64))

(* Run a post list through a feed; return every emission key in order. *)
let run_feed feed posts =
  let acc = ref [] in
  List.iter
    (fun p ->
      let o = Mqdp.Feed.push feed p in
      acc := List.rev_append (keys o.Mqdp.Feed.emissions) !acc)
    posts;
  acc := List.rev_append (keys (Mqdp.Feed.finish feed)) !acc;
  List.rev !acc

let run_online engine posts =
  let acc = ref [] in
  List.iter
    (fun p -> acc := List.rev_append (keys (Mqdp.Online.push engine p)) !acc)
    posts;
  acc := List.rev_append (keys (Mqdp.Online.finish engine)) !acc;
  List.rev !acc

let sample_posts =
  List.init 20 (fun i -> mk i (0.7 *. float_of_int i) [ i mod 3; (i * i) mod 5 ])

let test_transparent_on_sorted_stream () =
  (* On a clean time-ordered stream the frontend is invisible: any window
     size yields exactly the emissions of the bare engine. *)
  List.iter
    (fun mode ->
      let reference = run_online (Mqdp.Online.create ~lambda:2. mode) sample_posts in
      List.iter
        (fun window ->
          let feed =
            Mqdp.Feed.create
              ~config:{ Mqdp.Feed.default_config with reorder_window = window }
              ~lambda:2. mode
          in
          Alcotest.check emission_keys
            (Printf.sprintf "window %d is transparent" window)
            reference (run_feed feed sample_posts);
          let c = Mqdp.Feed.counters feed in
          Alcotest.(check int) "all accepted" 20 c.Mqdp.Feed.accepted;
          Alcotest.(check int) "all released" 20 c.Mqdp.Feed.released;
          Alcotest.(check int) "nothing dropped" 0
            (c.Mqdp.Feed.late_dropped + c.Mqdp.Feed.duplicate_dropped
           + c.Mqdp.Feed.non_finite_dropped))
        [ 0; 3; 64 ])
    [ delayed ~tau:1. (); delayed ~plus:true ~tau:1. (); Mqdp.Online.Instant ]

let test_reorder_window_absorbs_disorder () =
  (* Shuffle within the window depth; the engine still sees time order. *)
  let rng = Util.Rng.create 99 in
  let disordered =
    List.map (fun p -> (p.Mqdp.Post.value +. Util.Rng.float rng 4.0, p)) sample_posts
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.map snd
  in
  let reference =
    run_online
      (Mqdp.Online.create ~lambda:2. (delayed ~tau:1. ()))
      sample_posts
  in
  let feed =
    Mqdp.Feed.create
      ~config:{ Mqdp.Feed.default_config with reorder_window = 20 }
      ~lambda:2. (delayed ~tau:1. ())
  in
  Alcotest.check emission_keys "disorder absorbed" reference (run_feed feed disordered);
  let c = Mqdp.Feed.counters feed in
  Alcotest.(check bool) "reordering was observed" true (c.Mqdp.Feed.reordered > 0);
  Alcotest.(check int) "nothing dropped" 0 c.Mqdp.Feed.late_dropped

let immediate policy =
  {
    Mqdp.Feed.default_config with
    Mqdp.Feed.reorder_window = 0;
    late = policy;
    duplicate = policy;
    non_finite = policy;
  }

let test_late_policies () =
  (* Drop: the straggler vanishes, counted. *)
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Drop) ~lambda:5. (delayed ~tau:1. ()) in
  ignore (Mqdp.Feed.push feed (mk 1 10. [ 0 ]));
  let o = Mqdp.Feed.push feed (mk 2 4. [ 0 ]) in
  Alcotest.(check bool) "dropped" true (o.Mqdp.Feed.admitted = None);
  Alcotest.(check int) "counted" 1 (Mqdp.Feed.counters feed).Mqdp.Feed.late_dropped;
  Alcotest.(check (option (float 0.))) "watermark intact" (Some 10.)
    (Mqdp.Feed.watermark feed);
  (* Clamp: the straggler is repaired onto the watermark. *)
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Clamp) ~lambda:5. (delayed ~tau:1. ()) in
  ignore (Mqdp.Feed.push feed (mk 1 10. [ 0 ]));
  (match (Mqdp.Feed.push feed (mk 2 4. [ 0 ])).Mqdp.Feed.admitted with
  | Some p -> Alcotest.(check (float 0.)) "clamped to watermark" 10. p.Mqdp.Post.value
  | None -> Alcotest.fail "clamp dropped the post");
  Alcotest.(check int) "counted" 1 (Mqdp.Feed.counters feed).Mqdp.Feed.late_clamped;
  (* Raise: rejected before touching stream state; the feed stays usable. *)
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Raise) ~lambda:5. (delayed ~tau:1. ()) in
  ignore (Mqdp.Feed.push feed (mk 1 10. [ 0 ]));
  (match Mqdp.Feed.push feed (mk 2 4. [ 0 ]) with
  | _ -> Alcotest.fail "accepted a late post under Raise"
  | exception Mqdp.Feed.Rejected { id; what = _ } ->
    Alcotest.(check int) "names the offender" 2 id);
  let c = Mqdp.Feed.counters feed in
  Alcotest.(check int) "rejection counted" 1 c.Mqdp.Feed.rejected;
  Alcotest.(check int) "not admitted" 1 c.Mqdp.Feed.accepted;
  ignore (Mqdp.Feed.push feed (mk 3 11. [ 0 ]));
  Alcotest.(check int) "stream continues" 2 (Mqdp.Feed.counters feed).Mqdp.Feed.accepted

let test_duplicate_policies () =
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Drop) ~lambda:5. (delayed ~tau:1. ()) in
  ignore (Mqdp.Feed.push feed (mk 1 0. [ 0 ]));
  let o = Mqdp.Feed.push feed (mk 1 1. [ 0 ]) in
  Alcotest.(check bool) "duplicate dropped" true (o.Mqdp.Feed.admitted = None);
  Alcotest.(check int) "counted" 1
    (Mqdp.Feed.counters feed).Mqdp.Feed.duplicate_dropped;
  (* Clamp has nothing to repair on a duplicate: behaves like Drop. *)
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Clamp) ~lambda:5. (delayed ~tau:1. ()) in
  ignore (Mqdp.Feed.push feed (mk 1 0. [ 0 ]));
  Alcotest.(check bool) "clamp drops duplicates" true
    ((Mqdp.Feed.push feed (mk 1 1. [ 0 ])).Mqdp.Feed.admitted = None);
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Raise) ~lambda:5. (delayed ~tau:1. ()) in
  ignore (Mqdp.Feed.push feed (mk 1 0. [ 0 ]));
  match Mqdp.Feed.push feed (mk 1 1. [ 0 ]) with
  | _ -> Alcotest.fail "accepted a duplicate under Raise"
  | exception Mqdp.Feed.Rejected { id; _ } -> Alcotest.(check int) "id" 1 id

let test_non_finite_policies () =
  let nan_post id = { (mk id 0. [ 0 ]) with Mqdp.Post.value = Float.nan } in
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Drop) ~lambda:5. (delayed ~tau:1. ()) in
  Alcotest.(check bool) "NaN dropped" true
    ((Mqdp.Feed.push feed (nan_post 1)).Mqdp.Feed.admitted = None);
  Alcotest.(check bool) "+inf dropped" true
    ((Mqdp.Feed.push feed { (mk 2 0. [ 0 ]) with Mqdp.Post.value = Float.infinity })
       .Mqdp.Feed.admitted = None);
  Alcotest.(check int) "counted" 2
    (Mqdp.Feed.counters feed).Mqdp.Feed.non_finite_dropped;
  (* Clamp: before any release the repair lands at t = 0, afterwards at
     the watermark. *)
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Clamp) ~lambda:5. (delayed ~tau:1. ()) in
  (match (Mqdp.Feed.push feed (nan_post 1)).Mqdp.Feed.admitted with
  | Some p -> Alcotest.(check (float 0.)) "empty stream clamps to 0" 0. p.Mqdp.Post.value
  | None -> Alcotest.fail "clamp dropped");
  ignore (Mqdp.Feed.push feed (mk 2 7. [ 0 ]));
  (match (Mqdp.Feed.push feed (nan_post 3)).Mqdp.Feed.admitted with
  | Some p -> Alcotest.(check (float 0.)) "clamps to watermark" 7. p.Mqdp.Post.value
  | None -> Alcotest.fail "clamp dropped");
  let feed = Mqdp.Feed.create ~config:(immediate Mqdp.Feed.Raise) ~lambda:5. (delayed ~tau:1. ()) in
  match Mqdp.Feed.push feed (nan_post 9) with
  | _ -> Alcotest.fail "accepted a NaN timestamp under Raise"
  | exception Mqdp.Feed.Rejected { id; _ } -> Alcotest.(check int) "id" 9 id

let test_overload_degradation () =
  (* Ten single-label posts, distinct labels, deadlines far away: with a
     budget of 3 the frontend must demote seven labels on the spot. *)
  let config =
    { Mqdp.Feed.default_config with reorder_window = 0; overload_budget = Some 3 }
  in
  let feed = Mqdp.Feed.create ~config ~lambda:100. (delayed ~tau:50. ()) in
  let degraded_emissions = ref [] in
  for i = 0 to 9 do
    let o = Mqdp.Feed.push feed (mk i (float_of_int i) [ i ]) in
    degraded_emissions := List.rev_append (keys o.Mqdp.Feed.emissions) !degraded_emissions;
    Alcotest.(check bool)
      (Printf.sprintf "budget holds after post %d" i)
      true
      (Mqdp.Online.pending_labels (Mqdp.Feed.engine feed) <= 3)
  done;
  let c = Mqdp.Feed.counters feed in
  Alcotest.(check int) "seven labels demoted" 7 c.Mqdp.Feed.degraded_labels;
  Alcotest.(check int) "each demotion emitted its survivor" 7
    (List.length !degraded_emissions);
  Alcotest.(check int) "nothing shed: one post per label" 0 c.Mqdp.Feed.shed;
  let tail = Mqdp.Feed.finish feed in
  Alcotest.(check int) "the three in-budget labels drain" 3 (List.length tail);
  Alcotest.(check int) "no post lost" 10
    (Mqdp.Online.emitted_count (Mqdp.Feed.engine feed))

let test_overload_sheds_covered_pending () =
  (* Three pending posts on one label: demotion emits the latest and sheds
     the two it λ-covers. *)
  let config =
    { Mqdp.Feed.default_config with reorder_window = 0; overload_budget = Some 3 }
  in
  let feed = Mqdp.Feed.create ~config ~lambda:100. (delayed ~tau:50. ()) in
  ignore (Mqdp.Feed.push feed (mk 1 0. [ 0 ]));
  ignore (Mqdp.Feed.push feed (mk 2 1. [ 0 ]));
  ignore (Mqdp.Feed.push feed (mk 3 2. [ 0 ]));
  ignore (Mqdp.Feed.push feed (mk 4 3. [ 1 ]));
  ignore (Mqdp.Feed.push feed (mk 5 4. [ 2 ]));
  let o = Mqdp.Feed.push feed (mk 6 5. [ 3 ]) in
  (match keys o.Mqdp.Feed.emissions with
  | [ (3, _) ] -> ()
  | other ->
    Alcotest.failf "expected the latest pending of label 0, got %d emissions"
      (List.length other));
  let c = Mqdp.Feed.counters feed in
  Alcotest.(check int) "one label demoted" 1 c.Mqdp.Feed.degraded_labels;
  Alcotest.(check int) "two covered posts shed" 2 c.Mqdp.Feed.shed

let test_create_validation () =
  Alcotest.check_raises "negative window"
    (Invalid_argument "Feed.create: negative reorder_window") (fun () ->
      ignore
        (Mqdp.Feed.create
           ~config:{ Mqdp.Feed.default_config with reorder_window = -1 }
           ~lambda:1. Mqdp.Online.Instant));
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Feed.create: overload_budget < 1") (fun () ->
      ignore
        (Mqdp.Feed.create
           ~config:{ Mqdp.Feed.default_config with overload_budget = Some 0 }
           ~lambda:1. Mqdp.Online.Instant))

(* ---------------------------------------------------------------- *)
(* Checkpoint/restore                                               *)

let busy_feed ?(window = false) () =
  (* Mid-stream state with every component populated: staged buffer,
     pending labels, emitted history, a demoted label, and counters. *)
  let config =
    {
      Mqdp.Feed.reorder_window = 4;
      late = Mqdp.Feed.Clamp;
      duplicate = Mqdp.Feed.Drop;
      non_finite = Mqdp.Feed.Drop;
      overload_budget = Some 2;
    }
  in
  let feed = Mqdp.Feed.create ~config ~window ~lambda:6. (delayed ~plus:true ~tau:3. ()) in
  List.iter
    (fun p -> ignore (Mqdp.Feed.push feed p))
    [ mk 1 0. [ 0 ]; mk 2 1. [ 1 ]; mk 3 0.5 [ 0; 2 ]; mk 3 9. [ 2 ]; mk 4 2. [ 3 ];
      mk 5 2.5 [ 1 ]; mk 6 7. [ 2 ]; mk 7 8. [ 0; 3 ]; mk 8 8.5 [ 1 ] ];
  feed

let suffix_posts = [ mk 10 9. [ 0; 1 ]; mk 11 9.5 [ 2 ]; mk 12 20. [ 3 ]; mk 13 26. [ 1 ] ]

let test_checkpoint_roundtrip () =
  let original = busy_feed () in
  let image = Mqdp.Feed.checkpoint original in
  let restored = Mqdp.Feed.restore image in
  (* The serialization is canonical: re-checkpointing the restored state
     reproduces the image byte for byte. *)
  Alcotest.(check string) "canonical image" image (Mqdp.Feed.checkpoint restored);
  Alcotest.(check int) "buffered staged posts survive" (Mqdp.Feed.buffered original)
    (Mqdp.Feed.buffered restored);
  Alcotest.(check (option (float 0.))) "watermark survives"
    (Mqdp.Feed.watermark original) (Mqdp.Feed.watermark restored);
  Alcotest.(check bool) "counters survive" true
    (Mqdp.Feed.counters original = Mqdp.Feed.counters restored);
  Alcotest.(check int) "degraded labels survive"
    (Mqdp.Online.degraded_count (Mqdp.Feed.engine original))
    (Mqdp.Online.degraded_count (Mqdp.Feed.engine restored));
  (* And the restored frontend continues bit-identically. *)
  Alcotest.check emission_keys "identical continuation"
    (run_feed original suffix_posts) (run_feed restored suffix_posts);
  Alcotest.(check bool) "identical final counters" true
    (Mqdp.Feed.counters original = Mqdp.Feed.counters restored)

let test_checkpoint_detects_corruption () =
  let image = Mqdp.Feed.checkpoint (busy_feed ()) in
  let expect_corrupt what s =
    match Mqdp.Feed.restore s with
    | _ -> Alcotest.failf "restored a corrupt checkpoint (%s)" what
    | exception Util.Fs.Corrupt _ -> ()
  in
  expect_corrupt "garbage" "not a checkpoint at all";
  expect_corrupt "empty" "";
  expect_corrupt "truncated" (String.sub image 0 (String.length image - 20));
  expect_corrupt "bad magic" ("X" ^ image);
  let flip i s =
    let b = Bytes.of_string s in
    Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
    Bytes.to_string b
  in
  (* Flip one character somewhere in the body: the checksum must notice. *)
  expect_corrupt "bit flip" (flip (String.length image / 2) image);
  (* A tampered checksum line itself must also fail. *)
  expect_corrupt "tampered checksum" (flip (String.length image - 3) image)

(* A mirrored window travels inside the checkpoint and is restored
   bit-identically: same live content, same solve cover, same ordering
   guard, and the continuation still matches. *)
let test_windowed_checkpoint_roundtrip () =
  let original = busy_feed ~window:true () in
  let image = Mqdp.Feed.checkpoint original in
  let restored = Mqdp.Feed.restore image in
  Alcotest.(check string) "canonical image" image (Mqdp.Feed.checkpoint restored);
  let wo, wr =
    match (Mqdp.Feed.window original, Mqdp.Feed.window restored) with
    | Some a, Some b -> (a, b)
    | _ -> Alcotest.fail "window lost across checkpoint"
  in
  Alcotest.(check int) "window size survives" (Mqdp.Window_index.size wo)
    (Mqdp.Window_index.size wr);
  Alcotest.(check int) "window head survives" (Mqdp.Window_index.expired wo)
    (Mqdp.Window_index.expired wr);
  Alcotest.check sorted_ints "window solves identically"
    (Mqdp.Greedy_sc.solve_window wo) (Mqdp.Greedy_sc.solve_window wr);
  Alcotest.check emission_keys "identical continuation"
    (run_feed original suffix_posts) (run_feed restored suffix_posts)

(* The mirror is an observer: emissions with and without it are the same
   stream. *)
let test_window_is_transparent () =
  let plain = busy_feed () and mirrored = busy_feed ~window:true () in
  Alcotest.check emission_keys "windowed feed emits identically"
    (run_feed plain suffix_posts) (run_feed mirrored suffix_posts)

let test_checkpoint_file_roundtrip () =
  let original = busy_feed () in
  let path = Filename.temp_file "mqdp_feed" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mqdp.Feed.save_checkpoint ~path original;
      let restored = Mqdp.Feed.load_checkpoint path in
      Alcotest.check emission_keys "file roundtrip continues identically"
        (run_feed original suffix_posts) (run_feed restored suffix_posts))

let test_atomic_save_survives_torn_writes () =
  (* A crash injected mid-write (Util.Fault picks the byte boundaries) must
     never leave a checkpoint that fails checksum on restore: the previous
     checkpoint survives untouched, and the torn bytes only ever land in
     the ignored temp sibling. *)
  let original = busy_feed () in
  let image = Mqdp.Feed.checkpoint original in
  let path = Filename.temp_file "mqdp_feed_atomic" ".ckpt" in
  let torn_temps = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      List.iter Util.Fs.remove_if_exists !torn_temps)
    (fun () ->
      Mqdp.Feed.save_checkpoint ~path original;
      let fault = Util.Fault.create ~seed:11 () in
      let crash_bytes =
        Util.Fault.crash_points fault ~n:(String.length image - 1) ~max_points:8
      in
      List.iter
        (fun written ->
          let temp =
            match Util.Fs.atomic_write ~crash_after:written ~path image with
            | () -> Alcotest.fail "crash_after did not crash"
            | exception Util.Fs.Crashed { written = w; temp; _ } ->
              Alcotest.(check int) "crashed at the requested boundary" written w;
              torn_temps := temp :: !torn_temps;
              temp
          in
          (* The destination is still the previous, fully valid checkpoint. *)
          let restored = Mqdp.Feed.load_checkpoint path in
          Alcotest.check emission_keys "destination survives a torn write"
            (run_feed (Mqdp.Feed.restore image) suffix_posts)
            (run_feed restored suffix_posts);
          (* The torn temp sibling never passes validation. *)
          Alcotest.(check bool) "temp sibling is recognizably temporary" true
            (Util.Fs.is_temp temp);
          let torn = Util.Fs.read temp in
          Alcotest.(check int) "temp holds exactly the torn prefix" written
            (String.length torn);
          match Mqdp.Feed.restore torn with
          | _ -> Alcotest.fail "restored a torn checkpoint prefix"
          | exception Util.Fs.Corrupt _ -> ())
        crash_bytes;
      (* An uninterrupted save over the torn debris repairs everything. *)
      Mqdp.Feed.save_checkpoint ~path original;
      ignore (Mqdp.Feed.load_checkpoint path))

(* The satellite property: crash anywhere (including before the first push
   and after the last), restore from the checkpoint, continue — the emission
   stream is bit-identical to a run that never died, in every mode. *)
let crash_restore_property =
  qtest ~count:60 "crash/restore replay is bit-identical (all modes)"
    (QCheck.pair
       (arb_instance ~max_posts:25 ~max_labels:4 ~span:20. ())
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10_000)))
    (fun (inst, seed) ->
      let rng = Util.Rng.create (seed + 1) in
      (* Disorder the arrival order so the reorder buffer, late drops and
         overload shedding all participate. *)
      let posts = Array.copy (Mqdp.Instance.posts inst) in
      for i = Array.length posts - 1 downto 1 do
        let j = Util.Rng.int rng (i + 1) in
        let tmp = posts.(i) in
        posts.(i) <- posts.(j);
        posts.(j) <- tmp
      done;
      let posts = Array.to_list posts in
      let n = List.length posts in
      let config =
        {
          Mqdp.Feed.default_config with
          Mqdp.Feed.reorder_window = Util.Rng.int rng 8;
          overload_budget =
            (if Util.Rng.float rng 1. < 0.5 then Some (1 + Util.Rng.int rng 3)
             else None);
        }
      in
      let fault = Util.Fault.create ~seed:((7 * seed) + 13) () in
      let crashes = Util.Fault.crash_points fault ~n ~max_points:3 in
      (* Half the runs mirror a window, so crash/restore also exercises
         the window section of the checkpoint. *)
      let window = Util.Rng.float rng 1. < 0.5 in
      List.for_all
        (fun mode ->
          let run crashes =
            let feed = ref (Mqdp.Feed.create ~config ~window ~lambda:2. mode) in
            let crash () = feed := Mqdp.Feed.restore (Mqdp.Feed.checkpoint !feed) in
            let acc = ref [] in
            List.iteri
              (fun i p ->
                if List.mem i crashes then crash ();
                let o = Mqdp.Feed.push !feed p in
                acc := List.rev_append (keys o.Mqdp.Feed.emissions) !acc)
              posts;
            if List.mem n crashes then crash ();
            acc := List.rev_append (keys (Mqdp.Feed.finish !feed)) !acc;
            (List.rev !acc, Mqdp.Feed.counters !feed)
          in
          run [] = run crashes)
        [ delayed ~tau:1. (); delayed ~plus:true ~tau:1. (); Mqdp.Online.Instant ])

let suite =
  [
    Alcotest.test_case "transparent on a sorted stream" `Quick
      test_transparent_on_sorted_stream;
    Alcotest.test_case "reorder window absorbs disorder" `Quick
      test_reorder_window_absorbs_disorder;
    Alcotest.test_case "late policies" `Quick test_late_policies;
    Alcotest.test_case "duplicate policies" `Quick test_duplicate_policies;
    Alcotest.test_case "non-finite policies" `Quick test_non_finite_policies;
    Alcotest.test_case "overload degradation respects budget" `Quick
      test_overload_degradation;
    Alcotest.test_case "overload sheds covered pending" `Quick
      test_overload_sheds_covered_pending;
    Alcotest.test_case "config validation" `Quick test_create_validation;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "windowed checkpoint roundtrip" `Quick
      test_windowed_checkpoint_roundtrip;
    Alcotest.test_case "window mirror is transparent" `Quick test_window_is_transparent;
    Alcotest.test_case "checkpoint detects corruption" `Quick
      test_checkpoint_detects_corruption;
    Alcotest.test_case "checkpoint file roundtrip" `Quick
      test_checkpoint_file_roundtrip;
    Alcotest.test_case "atomic save survives torn writes" `Quick
      test_atomic_save_survives_torn_writes;
    crash_restore_property;
  ]
