(* The sliding-window coverage geometry. Three layers under test: the
   off-heap Flat containers it stores itself in, the window mechanics
   (push / expire / addressing / checkpoint), and the equivalence
   contract — solving the live window must be bit-identical to compiling
   a fresh Pair_index over the materialized slice, for every random
   interleaving of pushes and expiries, both λ modes, every selection
   strategy, sequential and pooled. *)

open Helpers

let fixed l = Mqdp.Coverage.Fixed l

(* Deterministic, pure per-post λ (the contract requires purity). *)
let variable =
  Mqdp.Coverage.Per_post_label
    (fun p a -> 0.5 +. (0.1 *. float_of_int ((p.Mqdp.Post.id mod 7) + a)))

(* --- Flat containers ------------------------------------------------ *)

let test_flat_ints () =
  let v = Util.Flat.Ints.create () in
  for i = 0 to 99 do
    Util.Flat.Ints.push v (i * 3)
  done;
  Alcotest.(check int) "length" 100 (Util.Flat.Ints.length v);
  Alcotest.(check int) "get" 57 (Util.Flat.Ints.get v 19);
  Util.Flat.Ints.drop_front v 40;
  Alcotest.(check int) "length after drop" 60 (Util.Flat.Ints.length v);
  Alcotest.(check int) "front shifted" 120 (Util.Flat.Ints.get v 0);
  Alcotest.(check int) "back intact" 297 (Util.Flat.Ints.get v 59);
  Util.Flat.Ints.set v 3 (-7);
  Alcotest.(check int) "set" (-7) (Util.Flat.Ints.get v 3);
  Util.Flat.Ints.clear v;
  Util.Flat.Ints.ensure v 8;
  Util.Flat.Ints.fill v 5;
  Alcotest.(check int) "ensure raises length" 8 (Util.Flat.Ints.length v);
  Alcotest.(check int) "fill" 5 (Util.Flat.Ints.get v 7)

let test_flat_floats () =
  let v = Util.Flat.Floats.create () in
  for i = 0 to 49 do
    Util.Flat.Floats.push v (float_of_int i /. 4.)
  done;
  Alcotest.(check (float 0.)) "get" 3.25 (Util.Flat.Floats.get v 13);
  Util.Flat.Floats.drop_front v 13;
  Alcotest.(check (float 0.)) "shifted" 3.25 (Util.Flat.Floats.get v 0);
  Util.Flat.Floats.set v 0 nan;
  Alcotest.(check bool) "nan round-trips" true
    (Float.is_nan (Util.Flat.Floats.get v 0))

let test_flat_flags () =
  let v = Util.Flat.Flags.create () in
  for i = 0 to 99 do
    Util.Flat.Flags.push v (i mod 3 = 0)
  done;
  Alcotest.(check bool) "get" true (Util.Flat.Flags.get v 33);
  Alcotest.(check bool) "get off" false (Util.Flat.Flags.get v 34);
  Util.Flat.Flags.drop_front v 33;
  Alcotest.(check bool) "shifted" true (Util.Flat.Flags.get v 0);
  Util.Flat.Flags.reset v;
  Alcotest.(check bool) "reset" false (Util.Flat.Flags.get v 0)

let test_flat_bits () =
  let b = Util.Flat.Bits.create () in
  (* Straddle the 62-bit word boundary on purpose. *)
  Util.Flat.Bits.reset b 200;
  List.iter (Util.Flat.Bits.set b) [ 0; 61; 62; 63; 123; 124; 199 ];
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "bit %d set" i) true (Util.Flat.Bits.get b i))
    [ 0; 61; 62; 63; 123; 124; 199 ];
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "bit %d clear" i) false (Util.Flat.Bits.get b i))
    [ 1; 60; 64; 122; 125; 198 ];
  Util.Flat.Bits.reset b 200;
  Alcotest.(check bool) "reset clears" false (Util.Flat.Bits.get b 63)

(* --- window mechanics ----------------------------------------------- *)

let w_post ~id ~value labels = post ~id ~value labels

let test_push_expire_addressing () =
  let w = Mqdp.Window_index.create (fixed 1.) in
  for i = 0 to 9 do
    Mqdp.Window_index.push w (w_post ~id:(100 + i) ~value:(float_of_int i) [ 0; i mod 2 ])
  done;
  Alcotest.(check int) "size" 10 (Mqdp.Window_index.size w);
  Alcotest.(check int) "total" 10 (Mqdp.Window_index.total w);
  Alcotest.(check int) "expired" 0 (Mqdp.Window_index.expired w);
  Mqdp.Window_index.expire_before w ~time:3.;
  Alcotest.(check int) "size after expire" 7 (Mqdp.Window_index.size w);
  Alcotest.(check int) "expired" 3 (Mqdp.Window_index.expired w);
  Alcotest.(check int) "total unchanged" 10 (Mqdp.Window_index.total w);
  Alcotest.(check (float 0.)) "window value" 3. (Mqdp.Window_index.value w 0);
  Alcotest.(check int) "window id" 103 (Mqdp.Window_index.id w 0);
  (* find_position returns the arrival number, not the window slot. *)
  Alcotest.(check int) "find_position" 5
    (Mqdp.Window_index.find_position w (w_post ~id:105 ~value:5. [ 0 ]));
  Alcotest.(check int) "find_position expired" (-1)
    (Mqdp.Window_index.find_position w (w_post ~id:101 ~value:1. [ 0 ]));
  (* Out-of-order pushes: push raises, try_push reports. *)
  Alcotest.check_raises "stale push raises"
    (Invalid_argument "Window_index.push: arrivals must be strictly increasing") (fun () ->
      Mqdp.Window_index.push w (w_post ~id:50 ~value:2. [ 0 ]));
  Alcotest.(check bool) "try_push skips stale" false
    (Mqdp.Window_index.try_push w (w_post ~id:50 ~value:2. [ 0 ]));
  Alcotest.(check bool) "try_push accepts fresh" true
    (Mqdp.Window_index.try_push w (w_post ~id:200 ~value:42. [ 1 ]));
  (* The ordering guard survives a fully-expired window. *)
  Mqdp.Window_index.expire_before w ~time:1e9;
  Alcotest.(check int) "empty" 0 (Mqdp.Window_index.size w);
  Alcotest.(check bool) "guard survives emptiness" false
    (Mqdp.Window_index.try_push w (w_post ~id:60 ~value:41. [ 0 ]))

let test_expire_matches_sub () =
  (* expire_before keeps value >= time, exactly Instance.sub ~lo. *)
  let posts = List.init 12 (fun i -> w_post ~id:i ~value:(float_of_int (i / 2)) [ 0 ]) in
  let inst = instance_of posts in
  let w = Mqdp.Window_index.create (fixed 1.) in
  Array.iter (Mqdp.Window_index.push w) (Mqdp.Instance.posts inst);
  Mqdp.Window_index.expire_before w ~time:3.;
  let slice = Mqdp.Instance.sub inst ~lo:3. ~hi:infinity in
  Alcotest.(check int) "sizes agree" (Mqdp.Instance.size slice) (Mqdp.Window_index.size w);
  for i = 0 to Mqdp.Window_index.size w - 1 do
    Alcotest.(check int) "ids agree" (Mqdp.Instance.post slice i).Mqdp.Post.id
      (Mqdp.Window_index.id w i)
  done

let test_emit_reach_disciplines () =
  let w = Mqdp.Window_index.create (fixed 2.) in
  Alcotest.(check (float 0.)) "virgin reach" neg_infinity (Mqdp.Window_index.emit_reach w 3);
  (* note_emission takes the max across the post's labels... *)
  Mqdp.Window_index.note_emission w (w_post ~id:1 ~value:10. [ 3; 4 ]);
  Alcotest.(check (float 0.)) "noted" 12. (Mqdp.Window_index.emit_reach w 3);
  Mqdp.Window_index.note_emission w (w_post ~id:2 ~value:9. [ 3 ]);
  Alcotest.(check (float 0.)) "max kept" 12. (Mqdp.Window_index.emit_reach w 3);
  (* ...while set_emit_reach assigns, so reach can move backwards. *)
  Mqdp.Window_index.set_emit_reach w 3 11.;
  Alcotest.(check (float 0.)) "assigned" 11. (Mqdp.Window_index.emit_reach w 3);
  (* An arrival within its labels' reach is born fully covered. *)
  Mqdp.Window_index.push w (w_post ~id:10 ~value:10.5 [ 3 ]);
  Alcotest.(check bool) "born covered" true (Mqdp.Window_index.fully_covered w 0);
  Mqdp.Window_index.push w (w_post ~id:11 ~value:11.5 [ 3; 4 ]);
  Alcotest.(check bool) "label 4 uncovered" false (Mqdp.Window_index.fully_covered w 1)

(* --- equivalence with a fresh Pair_index ---------------------------- *)

(* Drive a window through an interleaving of pushes and expiries over
   [inst]'s posts, ending with everything pushed and the first [head]
   arrivals expired — the live content equals positions
   [head, size inst) of [inst]. *)
let window_of_slice lambda inst ~head =
  let w = Mqdp.Window_index.create lambda in
  let n = Mqdp.Instance.size inst in
  (* Interleave: push everything, expiring the prefix in random-ish
     chunks along the way so compaction paths run. *)
  let expired = ref 0 in
  for i = 0 to n - 1 do
    Mqdp.Window_index.push w (Mqdp.Instance.post inst i);
    (* Expire a chunk whenever the pushed count crosses a multiple of 3,
       never past [head]. *)
    let want = min head ((i * head) / (max 1 (n - 1))) in
    if want > !expired then begin
      Mqdp.Window_index.expire_posts w (want - !expired);
      expired := want
    end
  done;
  if head > !expired then Mqdp.Window_index.expire_posts w (head - !expired);
  w

let slice_instance inst ~head =
  let n = Mqdp.Instance.size inst in
  Mqdp.Instance.create
    (List.init (n - head) (fun i -> Mqdp.Instance.post inst (head + i)))

let arb_slice =
  QCheck.make
    ~print:(fun (inst, l, head) ->
      Printf.sprintf "lambda=%g head=%d %s" l head (describe_instance inst))
    QCheck.Gen.(
      let* inst = gen_instance ~max_posts:16 ~max_labels:4 () in
      let* l = gen_lambda in
      let* head = int_range 0 (Mqdp.Instance.size inst - 1) in
      return (inst, l, head))

let selections = [ (`Bucket_queue, "bucket"); (`Linear_scan, "linear") ]

let equivalence_law lambda_of (inst, l, head) =
  let lambda = lambda_of l in
  let w = window_of_slice lambda inst ~head in
  let slice = slice_instance inst ~head in
  let index = Mqdp.Pair_index.build slice lambda in
  let reference = Mqdp.Greedy_sc.solve_indexed index in
  let solver = Mqdp.Greedy_sc.window_solver () in
  List.iter
    (fun (selection, name) ->
      let got = Mqdp.Greedy_sc.solve_window ~selection ~solver w in
      if got <> reference then
        QCheck.Test.fail_reportf "windowed %s cover %s <> fresh-index %s on %s" name
          (String.concat "," (List.map string_of_int got))
          (String.concat "," (List.map string_of_int reference))
          (describe_instance slice))
    selections;
  (* And the Solver front-end agrees, including its to_instance fallback. *)
  let via_solver = (Mqdp.Solver.solve_window Mqdp.Solver.Greedy_sc w).Mqdp.Solver.cover in
  if via_solver <> reference then
    QCheck.Test.fail_reportf "Solver.solve_window disagrees on %s" (describe_instance slice);
  check_cover "windowed greedy" slice lambda reference

let equivalence_pooled_law (inst, l, head) =
  let lambda = fixed l in
  let w = window_of_slice lambda inst ~head in
  let slice = slice_instance inst ~head in
  let reference =
    Util.Pool.with_pool ~jobs:4 (fun pool -> Mqdp.Greedy_sc.solve ~pool slice lambda)
  in
  let got = Mqdp.Greedy_sc.solve_window w in
  if got <> reference then
    QCheck.Test.fail_reportf "windowed cover <> 4-domain cover on %s"
      (describe_instance slice);
  true

(* The marked path: persistent marks are both the starting state and the
   place picks are recorded. Pinned three ways — virgin marks agree with
   the pristine solve, a second solve finds nothing left, and emissions
   noted before a push make the arrival born covered. *)
let marked_law (inst, l, head) =
  let lambda = fixed l in
  let w = window_of_slice lambda inst ~head in
  let pristine = Mqdp.Greedy_sc.solve_window w in
  let got = Mqdp.Greedy_sc.solve_window ~marked:true w in
  if got <> pristine then
    QCheck.Test.fail_reportf "virgin marked solve differs from pristine on %s"
      (describe_instance inst);
  let again = Mqdp.Greedy_sc.solve_window ~marked:true w in
  if again <> [] then
    QCheck.Test.fail_reportf "second marked solve returned %s on %s"
      (String.concat "," (List.map string_of_int again))
      (describe_instance inst);
  let w2 = Mqdp.Window_index.create lambda in
  Array.iter
    (fun p ->
      Mqdp.Window_index.note_emission w2 p;
      Mqdp.Window_index.push w2 p)
    (Mqdp.Instance.posts inst);
  let drained = Mqdp.Greedy_sc.solve_window ~marked:true w2 in
  if drained <> [] then
    QCheck.Test.fail_reportf "emission-before-push left %s uncovered on %s"
      (String.concat "," (List.map string_of_int drained))
      (describe_instance inst);
  true

let roundtrip_law (inst, l, head) =
  let lambda = fixed l in
  let w = window_of_slice lambda inst ~head in
  let restored = Mqdp.Window_index.import lambda (Mqdp.Window_index.export w) in
  Alcotest.(check int) "expired preserved" (Mqdp.Window_index.expired w)
    (Mqdp.Window_index.expired restored);
  Alcotest.(check int) "size preserved" (Mqdp.Window_index.size w)
    (Mqdp.Window_index.size restored);
  let a = Mqdp.Greedy_sc.solve_window w in
  let b = Mqdp.Greedy_sc.solve_window restored in
  if a <> b then QCheck.Test.fail_reportf "restored cover differs on %s" (describe_instance inst);
  (* The guard survives: re-offering the first arrival is rejected by the
     restored window just as the original would. *)
  let stale = Mqdp.Instance.post inst 0 in
  Alcotest.(check bool) "guard restored" false (Mqdp.Window_index.try_push restored stale);
  true

(* --- the in-place cover check --------------------------------------- *)

(* Windows up to 150 posts with up to all but one expired, so the label
   and post storage compact (dead > live + 64) on the way; [picks] and
   [drop] steer the covers drawn below. *)
let arb_cover_case =
  QCheck.make
    ~print:(fun (inst, l, head, picks, drop) ->
      Printf.sprintf "lambda=%g head=%d picks=[%s] drop=%d %s" l head
        (String.concat ";" (List.map string_of_int picks))
        drop (describe_instance inst))
    QCheck.Gen.(
      let* inst = gen_instance ~max_posts:150 ~max_labels:4 ~span:60. () in
      (* whole λs too, so that integral values sit exactly λ apart *)
      let* l = oneof [ gen_lambda; map float_of_int (int_range 0 3) ] in
      let n = Mqdp.Instance.size inst in
      (* One case in eight drains the window completely. *)
      let* head = frequency [ (1, return n); (7, int_range 0 (n - 1)) ] in
      let* picks = list_size (int_range 0 12) (int_range 0 1000) in
      let* drop = int_range 0 1000 in
      return (inst, l, head, picks, drop))

let is_cover_law lambda_of (inst, l, head, picks, drop) =
  let lambda = lambda_of l in
  let w = window_of_slice lambda inst ~head in
  let slice = Mqdp.Window_index.to_instance w in
  let n = Mqdp.Window_index.size w in
  let agree name cover =
    let expected = Mqdp.Coverage.is_cover slice lambda cover in
    let got = Mqdp.Window_index.is_cover w cover in
    if got <> expected then
      QCheck.Test.fail_reportf "%s [%s]: window says %b, Coverage says %b on %s" name
        (String.concat ";" (List.map string_of_int cover))
        got expected (describe_instance slice)
  in
  let raises name cover =
    let raised f = match f () with _ -> false | exception Invalid_argument _ -> true in
    if not (raised (fun () -> Mqdp.Coverage.is_cover slice lambda cover)) then
      QCheck.Test.fail_reportf "Coverage accepted %s" name;
    if not (raised (fun () -> Mqdp.Window_index.is_cover w cover)) then
      QCheck.Test.fail_reportf "Window_index accepted %s" name
  in
  let answer = Mqdp.Greedy_sc.solve_window w in
  agree "solver answer" answer;
  if not (Mqdp.Window_index.is_cover w answer) then
    QCheck.Test.fail_reportf "solver answer rejected on %s" (describe_instance slice);
  agree "empty cover" [];
  if answer <> [] then
    agree "answer minus one" (List.filteri (fun i _ -> i <> drop mod List.length answer) answer);
  if n > 0 then begin
    (* unsorted, with repeats: the check sorts what is not ascending *)
    agree "random subset" (List.map (fun p -> p mod n) picks);
    agree "answer plus random picks" (List.map (fun p -> p mod n) picks @ answer);
    agree "random subset, ascending" (List.sort_uniq Int.compare (List.map (fun p -> p mod n) picks))
  end;
  raises "position = size" (answer @ [ n ]);
  raises "position -1" (-1 :: answer);
  true

(* The cover check reads the window in place: once warm, it allocates
   nothing for an ascending cover under either λ kind. *)
let test_is_cover_allocates_nothing () =
  List.iter
    (fun (name, lambda) ->
      let w = Mqdp.Window_index.create lambda in
      for i = 0 to 299 do
        Mqdp.Window_index.push w
          (w_post ~id:i ~value:(float_of_int i *. 0.7) [ i mod 5; (i * 3) mod 7 ])
      done;
      Mqdp.Window_index.expire_before w ~time:40.;
      let cover = Mqdp.Greedy_sc.solve_window w in
      Alcotest.(check bool) (name ^ ": answer is a cover") true
        (Mqdp.Window_index.is_cover w cover);
      let before = Gc.minor_words () in
      for _ = 1 to 10 do
        ignore (Mqdp.Window_index.is_cover w cover)
      done;
      Alcotest.(check (float 0.)) (name ^ ": minor words") 0. (Gc.minor_words () -. before))
    [ ("fixed", fixed 1.5); ("per-post", variable) ]

let suite =
  [
    Alcotest.test_case "flat ints" `Quick test_flat_ints;
    Alcotest.test_case "flat floats" `Quick test_flat_floats;
    Alcotest.test_case "flat flags" `Quick test_flat_flags;
    Alcotest.test_case "flat bits" `Quick test_flat_bits;
    Alcotest.test_case "push/expire/addressing" `Quick test_push_expire_addressing;
    Alcotest.test_case "expire_before matches Instance.sub" `Quick test_expire_matches_sub;
    Alcotest.test_case "emission reach disciplines" `Quick test_emit_reach_disciplines;
    qtest ~count:300 "window solve ≡ fresh index (fixed λ)" arb_slice
      (equivalence_law (fun l -> fixed l));
    qtest ~count:300 "window solve ≡ fresh index (per-post λ)" arb_slice
      (equivalence_law (fun _ -> variable));
    qtest ~count:40 "window solve ≡ 4-domain solve" arb_slice equivalence_pooled_law;
    qtest ~count:150 "marked solve drains after full emission" arb_slice marked_law;
    qtest ~count:150 "export/import round-trip" arb_slice roundtrip_law;
    qtest ~count:300 "is_cover ≡ Coverage.is_cover (fixed λ)" arb_cover_case
      (is_cover_law (fun l -> fixed l));
    qtest ~count:300 "is_cover ≡ Coverage.is_cover (per-post λ)" arb_cover_case
      (is_cover_law (fun _ -> variable));
    Alcotest.test_case "is_cover allocates nothing" `Quick test_is_cover_allocates_nothing;
  ]
