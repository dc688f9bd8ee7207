(* The incremental push-based engine. Its core behaviour is already pinned
   through the Stream_scan adapter; these tests cover the incremental API
   surface itself. *)

open Helpers

let mk id value labels = post ~id ~value labels

let delayed ?(plus = false) ~lambda ~tau () =
  Mqdp.Online.create ~lambda (Mqdp.Online.Delayed { tau; plus })

let test_emission_timing () =
  let engine = delayed ~lambda:10. ~tau:2. () in
  (* First post pending; deadline = min(0+2, 0+10) = 2. *)
  Alcotest.(check int) "no emission on arrival" 0
    (List.length (Mqdp.Online.push engine (mk 1 0. [ 0 ])));
  (* Next arrival at t=5 > 2: the deadline fired in between. *)
  let due = Mqdp.Online.push engine (mk 2 5. [ 0 ]) in
  (match due with
  | [ e ] ->
    Alcotest.(check int) "post 1 emitted" 1 e.Mqdp.Online.post.Mqdp.Post.id;
    Alcotest.(check (float 1e-9)) "at its deadline" 2. e.Mqdp.Online.emit_time
  | other -> Alcotest.failf "expected 1 emission, got %d" (List.length other));
  (* Post 2 is covered by post 1 (distance 5 <= lambda), nothing pending. *)
  Alcotest.(check (list unit)) "flush empty" []
    (List.map (fun _ -> ()) (Mqdp.Online.finish engine));
  Alcotest.(check int) "one distinct post emitted" 1 (Mqdp.Online.emitted_count engine)

let test_lambda_deadline_dominates () =
  (* tau large: the oldest-pending + lambda bound forces emission. *)
  let engine = delayed ~lambda:3. ~tau:100. () in
  ignore (Mqdp.Online.push engine (mk 1 0. [ 0 ]));
  ignore (Mqdp.Online.push engine (mk 2 2. [ 0 ]));
  let due = Mqdp.Online.push engine (mk 3 50. [ 0 ]) in
  (match due with
  | [ e ] ->
    Alcotest.(check int) "latest pending emitted" 2 e.Mqdp.Online.post.Mqdp.Post.id;
    Alcotest.(check (float 1e-9)) "at t_oldest + lambda" 3. e.Mqdp.Online.emit_time
  | other -> Alcotest.failf "expected 1 emission, got %d" (List.length other));
  ignore (Mqdp.Online.finish engine)

let test_out_of_order_rejected () =
  let engine = delayed ~lambda:1. ~tau:1. () in
  ignore (Mqdp.Online.push engine (mk 1 5. [ 0 ]));
  match Mqdp.Online.push engine (mk 2 4. [ 0 ]) with
  | _ -> Alcotest.fail "accepted out-of-order arrival"
  | exception Invalid_argument _ -> ()

let test_create_validation () =
  Alcotest.check_raises "negative lambda"
    (Invalid_argument "Online.create: negative lambda") (fun () ->
      ignore (Mqdp.Online.create ~lambda:(-1.) Mqdp.Online.Instant));
  Alcotest.check_raises "negative tau"
    (Invalid_argument "Online.create: negative tau") (fun () ->
      ignore
        (Mqdp.Online.create ~lambda:1.
           (Mqdp.Online.Delayed { tau = -1.; plus = false })))

let test_instant_mode () =
  let engine = Mqdp.Online.create ~lambda:10. Mqdp.Online.Instant in
  let e1 = Mqdp.Online.push engine (mk 1 0. [ 0; 1 ]) in
  Alcotest.(check int) "first post emitted immediately" 1 (List.length e1);
  Alcotest.(check int) "covered arrival silent" 0
    (List.length (Mqdp.Online.push engine (mk 2 5. [ 0 ])));
  (* Label 2 is new: must emit even though label 0 is covered. *)
  Alcotest.(check int) "new label forces emission" 1
    (List.length (Mqdp.Online.push engine (mk 3 6. [ 0; 2 ])));
  Alcotest.(check int) "instant finish is empty" 0
    (List.length (Mqdp.Online.finish engine));
  Alcotest.(check int) "distinct emissions" 2 (Mqdp.Online.emitted_count engine)

(* The instant arrival runs once per post per profile on the serving
   path: once warm, an arrival covered on every label allocates nothing,
   labels in a second bitset word included. *)
let test_instant_covered_allocates_nothing () =
  let engine = Mqdp.Online.create ~lambda:10. Mqdp.Online.Instant in
  let labels = [ 0; 3; 70 ] in
  Alcotest.(check int) "first post emitted" 1
    (List.length (Mqdp.Online.push engine (mk 1 0. labels)));
  let posts = Array.init 8 (fun i -> mk (i + 2) (float_of_int (i + 1)) labels) in
  let before = Gc.minor_words () in
  for i = 0 to Array.length posts - 1 do
    match Mqdp.Online.push engine posts.(i) with
    | [] -> ()
    | _ -> Alcotest.fail "covered arrival emitted"
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before);
  Alcotest.(check (option (float 0.))) "last arrival" (Some 8.)
    (Mqdp.Online.last_arrival engine)

let test_last_arrival () =
  let engine = delayed ~lambda:1. ~tau:1. () in
  Alcotest.(check (option (float 0.))) "initially none" None
    (Mqdp.Online.last_arrival engine);
  ignore (Mqdp.Online.push engine (mk 1 7. [ 0 ]));
  Alcotest.(check (option (float 0.))) "tracks pushes" (Some 7.)
    (Mqdp.Online.last_arrival engine)

let test_arrival_at_deadline_boundary () =
  (* Post 2 arrives exactly at t_oldest + lambda. The deadline must NOT
     fire before the arrival is processed: post 2 covers the pending pair,
     so it — not post 1 — is the emission, at the (equal) deadline. *)
  let engine = delayed ~lambda:10. ~tau:100. () in
  Alcotest.(check int) "post 1 goes pending" 0
    (List.length (Mqdp.Online.push engine (mk 1 0. [ 0 ])));
  Alcotest.(check int) "no emission on a boundary arrival" 0
    (List.length (Mqdp.Online.push engine (mk 2 10. [ 0 ])));
  match Mqdp.Online.finish engine with
  | [ e ] ->
    Alcotest.(check int) "the arriving post is emitted" 2
      e.Mqdp.Online.post.Mqdp.Post.id;
    Alcotest.(check (float 1e-9)) "at the boundary deadline" 10.
      e.Mqdp.Online.emit_time
  | other -> Alcotest.failf "expected 1 emission, got %d" (List.length other)

let test_deadline_queue_bounded () =
  (* lambda-dominated regime: every arrival extends pending but recomputes
     the same t_oldest + lambda deadline, which must not be re-pushed.
     Before the dedup fix the queue grew to ~50 entries per window. *)
  let engine = delayed ~lambda:50. ~tau:1000. () in
  let max_len = ref 0 in
  for i = 0 to 499 do
    ignore (Mqdp.Online.push engine (mk i (float_of_int i) [ 0 ]));
    max_len := max !max_len (Mqdp.Online.deadline_queue_length engine)
  done;
  ignore (Mqdp.Online.finish engine);
  Alcotest.(check bool)
    (Printf.sprintf "queue stays O(labels), peaked at %d" !max_len)
    true (!max_len <= 4);
  Alcotest.(check int) "drained after finish" 0
    (Mqdp.Online.deadline_queue_length engine)

let test_deadline_queue_compaction () =
  (* tau-dominated multi-label stream in plus mode: deadlines churn on
     every arrival and every credit, leaving stale entries behind. The
     compaction invariant caps the queue at 2 * labels + slack. *)
  let labels = 10 in
  let engine = delayed ~plus:true ~lambda:5. ~tau:0.9 () in
  let bound = (2 * labels) + 8 in
  for i = 0 to 1999 do
    let ls = if i mod 17 = 0 then List.init labels Fun.id else [ i mod labels ] in
    ignore (Mqdp.Online.push engine (mk i (0.45 *. float_of_int i) ls));
    let len = Mqdp.Online.deadline_queue_length engine in
    if len > bound then
      Alcotest.failf "queue length %d exceeds bound %d at arrival %d" len bound i
  done;
  ignore (Mqdp.Online.finish engine)

let test_stream_continues_after_finish () =
  let engine = delayed ~lambda:2. ~tau:1. () in
  ignore (Mqdp.Online.push engine (mk 1 0. [ 0 ]));
  Alcotest.(check int) "finish drains" 1 (List.length (Mqdp.Online.finish engine));
  (* The service keeps running: a far-away post goes pending again. *)
  Alcotest.(check int) "accepts more pushes" 0
    (List.length (Mqdp.Online.push engine (mk 2 100. [ 0 ])));
  Alcotest.(check int) "and drains again" 1 (List.length (Mqdp.Online.finish engine))

(* Incremental push/finish must reproduce the batch adapter exactly. *)
let online_equals_batch =
  qtest ~count:150 "push/finish = Stream_scan.solve on the same posts"
    (QCheck.triple
       (arb_instance ~max_posts:30 ~max_labels:4 ~span:25. ())
       (QCheck.make QCheck.Gen.(map (fun l -> 0.5 +. l) (float_bound_exclusive 4.)))
       (QCheck.make QCheck.Gen.(float_bound_exclusive 6.)))
    (fun (inst, lambda, tau) ->
      List.for_all
        (fun plus ->
          let engine =
            Mqdp.Online.create ~lambda (Mqdp.Online.Delayed { tau; plus })
          in
          let incremental = ref [] in
          for i = 0 to Mqdp.Instance.size inst - 1 do
            incremental :=
              List.rev_append (Mqdp.Online.push engine (Mqdp.Instance.post inst i))
                !incremental
          done;
          incremental := List.rev_append (Mqdp.Online.finish engine) !incremental;
          let batch =
            Mqdp.Stream_scan.solve ~plus ~tau inst (Mqdp.Coverage.Fixed lambda)
          in
          let incremental_ids =
            List.rev_map (fun e -> e.Mqdp.Online.post.Mqdp.Post.id) !incremental
            |> List.sort_uniq Int.compare
          in
          let batch_ids =
            List.map
              (fun pos -> (Mqdp.Instance.post inst pos).Mqdp.Post.id)
              batch.Mqdp.Stream.cover
          in
          incremental_ids = List.sort Int.compare batch_ids
          && Mqdp.Online.emitted_count engine = List.length batch_ids)
        [ false; true ])

(* The mirrored Window_index is a pure observer: an engine with a window
   attached must emit the bit-identical stream (ids and IEEE emit times)
   of one without, in every mode. This is the transparency half of the
   Online refactor; the geometry half (the window's content matching a
   fresh index) lives in test_window_index. *)
let windowed_mirror_transparent =
  qtest ~count:150 "window mirror never changes emissions"
    (QCheck.triple
       (arb_instance ~max_posts:30 ~max_labels:4 ~span:25. ())
       (QCheck.make QCheck.Gen.(map (fun l -> 0.5 +. l) (float_bound_exclusive 4.)))
       (QCheck.make QCheck.Gen.(float_bound_exclusive 6.)))
    (fun (inst, lambda, tau) ->
      List.for_all
        (fun mode ->
          let run mirrored =
            let window =
              if mirrored then Some (Mqdp.Window_index.create (Mqdp.Coverage.Fixed lambda))
              else None
            in
            let engine = Mqdp.Online.create ?window ~lambda mode in
            let acc = ref [] in
            for i = 0 to Mqdp.Instance.size inst - 1 do
              acc :=
                List.rev_append (Mqdp.Online.push engine (Mqdp.Instance.post inst i))
                  !acc
            done;
            acc := List.rev_append (Mqdp.Online.finish engine) !acc;
            List.rev_map
              (fun e ->
                (e.Mqdp.Online.post.Mqdp.Post.id,
                 Int64.bits_of_float e.Mqdp.Online.emit_time))
              !acc
          in
          run false = run true)
        [
          Mqdp.Online.Delayed { tau; plus = false };
          Mqdp.Online.Delayed { tau; plus = true };
          Mqdp.Online.Instant;
        ])

let emit_times_monotone_per_push =
  qtest ~count:150 "each push returns emissions in emit-time order"
    (arb_instance ~max_posts:25 ~max_labels:3 ~span:20. ())
    (fun inst ->
      let engine =
        Mqdp.Online.create ~lambda:2. (Mqdp.Online.Delayed { tau = 1.; plus = true })
      in
      let sorted es =
        let times = List.map (fun e -> e.Mqdp.Online.emit_time) es in
        List.sort Float.compare times = times
      in
      let ok = ref true in
      for i = 0 to Mqdp.Instance.size inst - 1 do
        if not (sorted (Mqdp.Online.push engine (Mqdp.Instance.post inst i))) then
          ok := false
      done;
      !ok && sorted (Mqdp.Online.finish engine))

(* A post may serve several labels, but never the same label twice: its
   emission count is bounded by its label count, and by 1 in plus mode
   (the first emission credits every label it carries). *)
let at_most_once_per_label_window =
  qtest ~count:150 "never emits a post more than once per label window"
    (QCheck.triple
       (arb_instance ~max_posts:30 ~max_labels:4 ~span:25. ())
       (QCheck.make QCheck.Gen.(map (fun l -> 0.5 +. l) (float_bound_exclusive 4.)))
       (QCheck.make QCheck.Gen.(float_bound_exclusive 6.)))
    (fun (inst, lambda, tau) ->
      List.for_all
        (fun plus ->
          let engine =
            Mqdp.Online.create ~lambda (Mqdp.Online.Delayed { tau; plus })
          in
          let emissions = ref [] in
          for i = 0 to Mqdp.Instance.size inst - 1 do
            emissions :=
              List.rev_append (Mqdp.Online.push engine (Mqdp.Instance.post inst i))
                !emissions
          done;
          emissions := List.rev_append (Mqdp.Online.finish engine) !emissions;
          let count_of id =
            List.length
              (List.filter (fun e -> e.Mqdp.Online.post.Mqdp.Post.id = id) !emissions)
          in
          List.for_all
            (fun e ->
              let p = e.Mqdp.Online.post in
              let limit =
                if plus then 1 else Mqdp.Label_set.cardinal p.Mqdp.Post.labels
              in
              count_of p.Mqdp.Post.id <= limit)
            !emissions)
        [ false; true ])

let test_push_exception_safety () =
  (* A rejected out-of-order push must leave the engine exactly as it was:
     replaying the same suffix on a clean engine yields the same emissions. *)
  let feed engine posts =
    List.concat_map (fun p -> Mqdp.Online.push engine p) posts
    @ Mqdp.Online.finish engine
  in
  let prefix = [ mk 1 0. [ 0; 1 ]; mk 2 3. [ 1 ]; mk 3 5. [ 0; 2 ] ] in
  let suffix = [ mk 5 6. [ 2 ]; mk 6 9. [ 0; 1; 2 ]; mk 7 30. [ 1 ] ] in
  List.iter
    (fun mode ->
      let damaged = Mqdp.Online.create ~lambda:4. mode in
      let witness = Mqdp.Online.create ~lambda:4. mode in
      List.iter
        (fun p ->
          Alcotest.(check (list (pair int (float 1e-12))))
            "identical while healthy"
            (List.map
               (fun e -> (e.Mqdp.Online.post.Mqdp.Post.id, e.Mqdp.Online.emit_time))
               (Mqdp.Online.push witness p))
            (List.map
               (fun e -> (e.Mqdp.Online.post.Mqdp.Post.id, e.Mqdp.Online.emit_time))
               (Mqdp.Online.push damaged p)))
        prefix;
      (match Mqdp.Online.push damaged (mk 4 4.9 [ 0; 1 ]) with
      | _ -> Alcotest.fail "accepted out-of-order arrival"
      | exception Invalid_argument _ -> ());
      Alcotest.(check (option (float 0.))) "last arrival untouched" (Some 5.)
        (Mqdp.Online.last_arrival damaged);
      let a = feed damaged suffix and b = feed witness suffix in
      Alcotest.(check (list (pair int (float 1e-12))))
        "suffix behaves as if the bad push never happened"
        (List.map (fun e -> (e.Mqdp.Online.post.Mqdp.Post.id, e.Mqdp.Online.emit_time)) b)
        (List.map (fun e -> (e.Mqdp.Online.post.Mqdp.Post.id, e.Mqdp.Online.emit_time)) a);
      Alcotest.(check int) "emitted_count agrees" (Mqdp.Online.emitted_count witness)
        (Mqdp.Online.emitted_count damaged))
    [ Mqdp.Online.Delayed { tau = 2.; plus = false };
      Mqdp.Online.Delayed { tau = 2.; plus = true }; Mqdp.Online.Instant ]

let test_degrade_earliest () =
  let engine = delayed ~lambda:100. ~tau:50. () in
  (* Three posts pending on label 0, one on label 7; label 0 holds the
     earliest deadline (t_latest + tau = 2 + 50). *)
  ignore (Mqdp.Online.push engine (mk 1 0. [ 0 ]));
  ignore (Mqdp.Online.push engine (mk 2 1. [ 0 ]));
  ignore (Mqdp.Online.push engine (mk 3 2. [ 0 ]));
  ignore (Mqdp.Online.push engine (mk 4 3. [ 7 ]));
  Alcotest.(check int) "two live labels" 2 (Mqdp.Online.pending_labels engine);
  (match Mqdp.Online.degrade_earliest engine ~now:3. with
  | Some (label, shed, [ e ]) ->
    Alcotest.(check int) "earliest-deadline label demoted" 0 label;
    Alcotest.(check int) "older pending shed, covered" 2 shed;
    Alcotest.(check int) "latest pending emitted" 3 e.Mqdp.Online.post.Mqdp.Post.id;
    Alcotest.(check (float 1e-9)) "emitted now, not at the future deadline" 3.
      e.Mqdp.Online.emit_time
  | Some (_, _, es) -> Alcotest.failf "expected 1 emission, got %d" (List.length es)
  | None -> Alcotest.fail "nothing degraded");
  Alcotest.(check bool) "demotion is sticky" true (Mqdp.Online.is_degraded engine 0);
  Alcotest.(check int) "one label demoted" 1 (Mqdp.Online.degraded_count engine);
  Alcotest.(check int) "label 7 still pending" 1 (Mqdp.Online.pending_labels engine);
  (* A later uncovered arrival on the demoted label is emitted instantly. *)
  (match Mqdp.Online.push engine (mk 5 300. [ 0 ]) with
  | emissions ->
    Alcotest.(check (list int)) "label 7 drains, then instant emission" [ 4; 5 ]
      (List.map (fun e -> e.Mqdp.Online.post.Mqdp.Post.id) emissions));
  (* ... but a covered one stays silent. *)
  Alcotest.(check int) "covered arrival on demoted label is silent" 0
    (List.length (Mqdp.Online.push engine (mk 6 301. [ 0 ])));
  ignore (Mqdp.Online.finish engine);
  Alcotest.(check (option unit)) "nothing left to degrade" None
    (Option.map (fun _ -> ()) (Mqdp.Online.degrade_earliest engine ~now:301.))

let test_export_import_continuation () =
  (* Snapshot mid-stream; the restored engine must continue bit-identically. *)
  let posts =
    [ mk 1 0. [ 0; 1 ]; mk 2 0.5 [ 1 ]; mk 3 1.2 [ 2 ]; mk 4 2.0 [ 0; 2 ];
      mk 5 2.1 [ 1; 3 ]; mk 6 4.0 [ 3 ]; mk 7 9.0 [ 0; 1; 2; 3 ] ]
  in
  let keys es =
    List.map
      (fun e ->
        (e.Mqdp.Online.post.Mqdp.Post.id, Int64.bits_of_float e.Mqdp.Online.emit_time))
      es
  in
  List.iter
    (fun mode ->
      List.iter
        (fun cut ->
          let straight = Mqdp.Online.create ~lambda:1.5 mode in
          let resumed = Mqdp.Online.create ~lambda:1.5 mode in
          let take k = List.filteri (fun i _ -> i < k) posts in
          let drop k = List.filteri (fun i _ -> i >= k) posts in
          let run engine ps =
            List.concat_map (fun p -> keys (Mqdp.Online.push engine p)) ps
          in
          let head = run straight (take cut) in
          let head' = run resumed (take cut) in
          let resumed = Mqdp.Online.import (Mqdp.Online.export resumed) in
          let tail = run straight (drop cut) @ keys (Mqdp.Online.finish straight) in
          let tail' = run resumed (drop cut) @ keys (Mqdp.Online.finish resumed) in
          Alcotest.(check (list (pair int int64)))
            (Printf.sprintf "cut %d: identical emissions" cut)
            (head @ tail) (head' @ tail');
          Alcotest.(check int) "emitted count survives"
            (Mqdp.Online.emitted_count straight)
            (Mqdp.Online.emitted_count resumed))
        [ 0; 2; 4; 7 ])
    [ Mqdp.Online.Delayed { tau = 0.8; plus = false };
      Mqdp.Online.Delayed { tau = 0.8; plus = true }; Mqdp.Online.Instant ]

let test_import_rejects_invalid () =
  let engine = delayed ~lambda:2. ~tau:1. () in
  ignore (Mqdp.Online.push engine (mk 1 0. [ 0 ]));
  let snap = Mqdp.Online.export engine in
  Alcotest.check_raises "negative lambda"
    (Invalid_argument "Online.create: negative lambda") (fun () ->
      ignore (Mqdp.Online.import { snap with Mqdp.Online.snap_lambda = -1. }));
  let backwards =
    {
      snap with
      Mqdp.Online.snap_labels =
        [
          {
            Mqdp.Online.snap_label = 0;
            snap_pending = [ mk 1 0. [ 0 ]; mk 2 1. [ 0 ] ];
            snap_last_out = None;
          };
        ];
    }
  in
  (match Mqdp.Online.import backwards with
  | _ -> Alcotest.fail "accepted oldest-first pending list"
  | exception Invalid_argument _ -> ());
  let future =
    {
      snap with
      Mqdp.Online.snap_labels =
        [
          {
            Mqdp.Online.snap_label = 0;
            snap_pending = [ mk 9 99. [ 0 ] ];
            snap_last_out = None;
          };
        ];
    }
  in
  match Mqdp.Online.import future with
  | _ -> Alcotest.fail "accepted pending newer than last arrival"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "emission timing" `Quick test_emission_timing;
    Alcotest.test_case "lambda deadline dominates" `Quick test_lambda_deadline_dominates;
    Alcotest.test_case "out-of-order rejected" `Quick test_out_of_order_rejected;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "instant mode" `Quick test_instant_mode;
    Alcotest.test_case "last arrival" `Quick test_last_arrival;
    Alcotest.test_case "covered instant arrival allocates nothing" `Quick
      test_instant_covered_allocates_nothing;
    Alcotest.test_case "arrival at deadline boundary" `Quick
      test_arrival_at_deadline_boundary;
    Alcotest.test_case "deadline queue bounded" `Quick test_deadline_queue_bounded;
    Alcotest.test_case "deadline queue compaction" `Quick
      test_deadline_queue_compaction;
    Alcotest.test_case "stream continues after finish" `Quick
      test_stream_continues_after_finish;
    Alcotest.test_case "push exception safety" `Quick test_push_exception_safety;
    Alcotest.test_case "degrade earliest" `Quick test_degrade_earliest;
    Alcotest.test_case "export/import continuation" `Quick
      test_export_import_continuation;
    Alcotest.test_case "import rejects invalid snapshots" `Quick
      test_import_rejects_invalid;
    online_equals_batch;
    windowed_mirror_transparent;
    emit_times_monotone_per_push;
    at_most_once_per_label_window;
  ]
