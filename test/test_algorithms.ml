(* Offline algorithms: OPT (DP), brute force, GreedySC, Scan, Scan+.

   The heart of the suite: the exact algorithms must agree with each other
   on random small instances (with and without tied values), and every
   approximation must produce a valid cover within its proven bound. *)

open Helpers

let fixed l = Mqdp.Coverage.Fixed l

let figure2 =
  instance_of
    [ post ~id:1 ~value:0. [ 0 ]; post ~id:2 ~value:1. [ 0 ];
      post ~id:3 ~value:2. [ 0; 1 ]; post ~id:4 ~value:3. [ 1 ] ]

let all_solvers =
  [
    ("opt", fun inst l -> Mqdp.Opt.solve inst l);
    ("brute", fun inst l -> Mqdp.Brute_force.solve inst l);
    ("greedy", fun inst l -> Mqdp.Greedy_sc.solve inst l);
    ("greedy-bucket", fun inst l -> Mqdp.Greedy_sc.solve ~selection:`Bucket_queue inst l);
    ("greedy-linear", fun inst l -> Mqdp.Greedy_sc.solve ~selection:`Linear_scan inst l);
    ("scan", fun inst l -> Mqdp.Scan.solve inst l);
    ("scan+", fun inst l -> Mqdp.Scan.solve_plus inst l);
  ]

let test_figure2_all () =
  List.iter
    (fun (name, solve) ->
      let cover = solve figure2 (fixed 1.) in
      Alcotest.(check bool) (name ^ " valid") true
        (Mqdp.Coverage.is_cover figure2 (fixed 1.) cover);
      Alcotest.(check int) (name ^ " optimal here") 2 (List.length cover))
    all_solvers

let test_empty_instance () =
  let inst = instance_of [] in
  List.iter
    (fun (name, solve) ->
      Alcotest.(check (list int)) (name ^ " empty") [] (solve inst (fixed 1.)))
    all_solvers

let test_single_post () =
  let inst = instance_of [ post ~id:1 ~value:0. [ 0; 1 ] ] in
  List.iter
    (fun (name, solve) ->
      Alcotest.(check (list int)) (name ^ " singleton") [ 0 ] (solve inst (fixed 1.)))
    all_solvers

let test_lambda_zero () =
  (* λ = 0: posts only cover posts at the same value. *)
  let inst =
    instance_of
      [ post ~id:1 ~value:0. [ 0 ]; post ~id:2 ~value:0. [ 0 ];
        post ~id:3 ~value:1. [ 0 ] ]
  in
  List.iter
    (fun (name, solve) ->
      let cover = solve inst (fixed 0.) in
      Alcotest.(check bool) (name ^ " valid") true
        (Mqdp.Coverage.is_cover inst (fixed 0.) cover);
      Alcotest.(check int) (name ^ " size") 2 (List.length cover))
    all_solvers

let test_set_cover_degenerate () =
  (* All posts at one time: MQDP degenerates to set cover; the optimum
     picks the two-label posts. *)
  let inst =
    instance_of
      [ post ~id:1 ~value:0. [ 0; 1 ]; post ~id:2 ~value:0. [ 2; 3 ];
        post ~id:3 ~value:0. [ 0 ]; post ~id:4 ~value:0. [ 3 ] ]
  in
  Alcotest.(check int) "brute" 2 (List.length (Mqdp.Brute_force.solve inst (fixed 1.)));
  Alcotest.(check int) "greedy matches" 2
    (List.length (Mqdp.Greedy_sc.solve inst (fixed 1.)))

let test_scan_plus_orders () =
  let inst =
    instance_of
      [ post ~id:1 ~value:0. [ 0; 1 ]; post ~id:2 ~value:1. [ 0 ];
        post ~id:3 ~value:4. [ 1 ]; post ~id:4 ~value:5. [ 0; 1 ] ]
  in
  List.iter
    (fun order ->
      let cover = Mqdp.Scan.solve_plus ~order inst (fixed 1.) in
      Alcotest.(check bool) "valid under any order" true
        (Mqdp.Coverage.is_cover inst (fixed 1.) cover))
    [ Mqdp.Scan.Given; Mqdp.Scan.Most_frequent_first; Mqdp.Scan.Least_frequent_first ]

let test_opt_rejects_variable_lambda () =
  Alcotest.check_raises "unsupported"
    (Mqdp.Opt.Unsupported "Opt.solve requires a fixed lambda") (fun () ->
      ignore (Mqdp.Opt.solve figure2 (Mqdp.Coverage.Per_post_label (fun _ _ -> 1.))))

let test_opt_state_limit () =
  Alcotest.check_raises "state limit"
    (Mqdp.Opt.Too_large "Opt: more than 1 candidate end-patterns at step 1")
    (fun () -> ignore (Mqdp.Opt.solve ~max_states:1 figure2 (fixed 1.)))

let test_brute_force_limits () =
  let big =
    instance_of (List.init 50 (fun id -> post ~id ~value:(float_of_int id) [ 0; 1 ]))
  in
  Alcotest.check_raises "pair limit"
    (Mqdp.Brute_force.Too_large
       "Brute_force: 100 (post,label) pairs exceeds limit 10") (fun () ->
      ignore (Mqdp.Brute_force.solve ~max_pairs:10 big (fixed 1.)))

(* --- properties --- *)

let exact_agreement =
  qtest ~count:150 "OPT size = brute-force size (and both are covers)"
    (arb_instance_lambda ~max_posts:11 ~max_labels:3 ())
    (fun (inst, l) ->
      let lambda = fixed l in
      let bf = Mqdp.Brute_force.solve inst lambda in
      let opt = Mqdp.Opt.solve inst lambda in
      ignore (check_cover "opt" inst lambda opt);
      ignore (check_cover "brute" inst lambda bf);
      if List.length bf <> List.length opt then
        QCheck.Test.fail_reportf "brute=%d opt=%d on %s" (List.length bf)
          (List.length opt) (describe_instance inst);
      Mqdp.Opt.min_size inst lambda = List.length bf)

let approximations_are_covers =
  qtest "all approximations produce valid covers"
    (arb_instance_lambda ~max_posts:30 ~max_labels:5 ~span:25. ())
    (fun (inst, l) ->
      let lambda = fixed l in
      List.for_all
        (fun (name, solve) -> check_cover name inst lambda (solve inst lambda))
        [ ("greedy", fun i l -> Mqdp.Greedy_sc.solve i l);
          ("scan", fun i l -> Mqdp.Scan.solve i l);
          ("scan+", fun i l -> Mqdp.Scan.solve_plus i l) ])

let scan_bound =
  qtest ~count:150 "Scan within s times optimal"
    (arb_instance_lambda ~max_posts:11 ~max_labels:3 ())
    (fun (inst, l) ->
      let lambda = fixed l in
      let optimal = List.length (Mqdp.Brute_force.solve inst lambda) in
      let scan = List.length (Mqdp.Scan.solve inst lambda) in
      let s = Mqdp.Instance.max_labels_per_post inst in
      scan <= s * optimal)

(* Scan+ is a heuristic; the paper makes no dominance claim over Scan (its
   effect depends on the label order), so we only check per-label pick
   counts: Scan+ never selects more posts for a label than Scan does. *)
let scan_plus_per_label_bound =
  qtest "Scan+ total picks bounded by Scan's per-label sum"
    (arb_instance_lambda ~max_posts:30 ~max_labels:4 ~span:25. ())
    (fun (inst, l) ->
      let lambda = fixed l in
      let scan_sum =
        List.fold_left
          (fun acc a -> acc + List.length (Mqdp.Scan.solve_label inst lambda a))
          0
          (Mqdp.Instance.label_universe inst)
      in
      List.length (Mqdp.Scan.solve_plus inst lambda) <= scan_sum)

let scan_optimal_single_label =
  qtest ~count:150 "Scan optimal when every post has one label"
    (QCheck.pair (arb_instance ~max_posts:12 ~max_labels:3 ~max_per:1 ())
       (QCheck.make QCheck.Gen.(map (fun l -> 0.5 +. l) (float_bound_exclusive 4.))))
    (fun (inst, l) ->
      let lambda = fixed l in
      List.length (Mqdp.Scan.solve inst lambda)
      = List.length (Mqdp.Brute_force.solve inst lambda))

let scan_per_label_optimal =
  qtest ~count:150 "Scan's per-label pass is optimal for that label"
    (arb_instance_lambda ~max_posts:12 ~max_labels:3 ())
    (fun (inst, l) ->
      let lambda = fixed l in
      List.for_all
        (fun a ->
          (* Restrict the instance to label a and compare with brute force. *)
          let restricted =
            Mqdp.Instance.create
              (Array.to_list (Mqdp.Instance.label_posts inst a)
              |> List.map (fun i ->
                     let p = Mqdp.Instance.post inst i in
                     Mqdp.Post.make ~id:p.Mqdp.Post.id ~value:p.Mqdp.Post.value
                       ~labels:(Mqdp.Label_set.singleton a)))
          in
          List.length (Mqdp.Scan.solve_label inst lambda a)
          = List.length (Mqdp.Brute_force.solve restricted lambda))
        (Mqdp.Instance.label_universe inst))

let greedy_selections_agree_on_size_invariant =
  qtest "greedy bucket/linear both within ln bound of optimum"
    (arb_instance_lambda ~max_posts:11 ~max_labels:3 ())
    (fun (inst, l) ->
      let lambda = fixed l in
      let optimal = List.length (Mqdp.Brute_force.solve inst lambda) in
      let bound =
        int_of_float
          (ceil
             (float_of_int optimal
             *. (1.
                +. log
                     (float_of_int
                        (max 2
                           (Mqdp.Instance.size inst * Mqdp.Instance.num_labels inst))))))
      in
      List.length (Mqdp.Greedy_sc.solve inst lambda) <= bound
      && List.length (Mqdp.Greedy_sc.solve ~selection:`Linear_scan inst lambda) <= bound)

let monotone_in_lambda =
  qtest "optimal size non-increasing in lambda"
    (arb_instance ~max_posts:10 ~max_labels:3 ())
    (fun inst ->
      let size l = List.length (Mqdp.Brute_force.solve inst (fixed l)) in
      size 1. >= size 2. && size 2. >= size 4.)

let huge_lambda_collapses =
  qtest "lambda covering the whole span reduces to set cover on labels"
    (arb_instance ~max_posts:10 ~max_labels:3 ())
    (fun inst ->
      (* With lambda >= span every same-label pair covers each other, so
         the optimum equals the min number of posts whose label union is
         the universe. For 1-label posts that is |universe|; in general it
         is min set cover — we just check OPT <= |universe| and
         OPT >= ceil(|universe| / s). *)
      let lambda = fixed 1000. in
      let optimal = List.length (Mqdp.Brute_force.solve inst lambda) in
      let u = Mqdp.Instance.num_labels inst in
      let s = Mqdp.Instance.max_labels_per_post inst in
      optimal <= u && optimal * s >= u)

let variable_lambda_covers =
  qtest "approximations handle per-post lambda"
    (arb_instance ~max_posts:20 ~max_labels:3 ())
    (fun inst ->
      (* Radius grows with the post id parity — arbitrary but directional. *)
      let lambda =
        Mqdp.Coverage.Per_post_label
          (fun p _ -> if p.Mqdp.Post.id mod 2 = 0 then 3. else 0.5)
      in
      List.for_all
        (fun (name, cover) -> check_cover name inst lambda cover)
        [ ("greedy", Mqdp.Greedy_sc.solve inst lambda);
          ("scan", Mqdp.Scan.solve inst lambda);
          ("scan+", Mqdp.Scan.solve_plus inst lambda) ])

let brute_matches_on_variable_lambda =
  qtest ~count:100 "scan per-label optimality holds under per-post lambda"
    (arb_instance ~max_posts:10 ~max_labels:2 ~max_per:1 ())
    (fun inst ->
      let lambda =
        Mqdp.Coverage.Per_post_label (fun p _ -> if p.Mqdp.Post.id mod 3 = 0 then 2.5 else 1.)
      in
      List.length (Mqdp.Scan.solve inst lambda)
      = List.length (Mqdp.Brute_force.solve inst lambda))

(* The tentpole invariant: every GreedySC selection kernel returns the
   bit-identical cover — sequential and pooled, fixed and per-post λ —
   and commits the same number of greedy picks (pinned through the
   telemetry counter, so a kernel can't shortcut or double-pick without
   tripping this). *)
let kernel_variants_bit_identical =
  qtest ~count:60 "greedy kernels bit-identical across selection/jobs/lambda"
    (arb_instance_lambda ~max_posts:25 ~max_labels:4 ~span:25. ())
    (fun (inst, l) ->
      let picks = Util.Telemetry.counter "greedy.picks" in
      let solve_counted f =
        Util.Telemetry.enable ();
        Fun.protect ~finally:Util.Telemetry.disable (fun () ->
            let before = Util.Telemetry.counter_value picks in
            let cover = f () in
            (cover, Util.Telemetry.counter_value picks - before))
      in
      Util.Pool.with_pool ~jobs:2 (fun pool ->
          List.for_all
            (fun lambda ->
              let reference, ref_picks =
                solve_counted (fun () ->
                    Mqdp.Greedy_sc.solve ~selection:`Linear_scan inst lambda)
              in
              List.for_all
                (fun selection ->
                  let seq, seq_picks =
                    solve_counted (fun () -> Mqdp.Greedy_sc.solve ~selection inst lambda)
                  in
                  let pooled, pooled_picks =
                    solve_counted (fun () ->
                        Mqdp.Greedy_sc.solve ~selection ~pool inst lambda)
                  in
                  List.equal Int.equal seq reference
                  && List.equal Int.equal pooled reference
                  && seq_picks = ref_picks
                  && pooled_picks = ref_picks)
                [ `Linear_scan; `Bucket_queue ])
            [
              fixed l;
              Mqdp.Coverage.Per_post_label
                (fun p _ -> if p.Mqdp.Post.id mod 2 = 0 then l else l /. 2.);
            ]))

(* Structural boundedness of the selection queue: the bucket queue holds
   at most one slot per candidate, so its peak is bounded by the post
   count — no lazily-deleted stale entries can pile up. *)
let test_selection_peaks_bounded () =
  let inst =
    instance_of
      (List.init 60 (fun id ->
           post ~id ~value:(float_of_int (id / 2)) [ id mod 3 ]))
  in
  let n = Mqdp.Instance.size inst in
  let lambda = fixed 4. in
  let queue_peak = Util.Telemetry.gauge "greedy.queue_peak" in
  Util.Telemetry.enable ();
  Fun.protect ~finally:Util.Telemetry.disable (fun () ->
      ignore (Mqdp.Greedy_sc.solve ~selection:`Bucket_queue inst lambda));
  let qp = Util.Telemetry.gauge_value queue_peak in
  Alcotest.(check bool) "queue peak positive" true (qp > 0);
  Alcotest.(check bool)
    (Printf.sprintf "queue peak %d bounded by %d candidates" qp n)
    true (qp <= n)

let solver_dispatch_consistent =
  qtest ~count:60 "Solver.solve dispatch equals direct calls"
    (arb_instance_lambda ~max_posts:10 ~max_labels:3 ())
    (fun (inst, l) ->
      let lambda = fixed l in
      List.for_all
        (fun (algo, direct) ->
          (Mqdp.Solver.solve algo inst lambda).Mqdp.Solver.cover = direct inst lambda)
        [ (Mqdp.Solver.Scan, fun i l -> Mqdp.Scan.solve i l);
          (Mqdp.Solver.Scan_plus, fun i l -> Mqdp.Scan.solve_plus i l);
          (Mqdp.Solver.Greedy_sc, fun i l -> Mqdp.Greedy_sc.solve i l);
          (Mqdp.Solver.Opt, fun i l -> Mqdp.Opt.solve i l) ])

let suite =
  [
    Alcotest.test_case "Figure 2, all algorithms" `Quick test_figure2_all;
    Alcotest.test_case "empty instance" `Quick test_empty_instance;
    Alcotest.test_case "single post" `Quick test_single_post;
    Alcotest.test_case "lambda = 0" `Quick test_lambda_zero;
    Alcotest.test_case "set-cover degenerate case" `Quick test_set_cover_degenerate;
    Alcotest.test_case "Scan+ label orders" `Quick test_scan_plus_orders;
    Alcotest.test_case "OPT rejects variable lambda" `Quick test_opt_rejects_variable_lambda;
    Alcotest.test_case "OPT state limit" `Quick test_opt_state_limit;
    Alcotest.test_case "brute-force limits" `Quick test_brute_force_limits;
    exact_agreement;
    approximations_are_covers;
    scan_bound;
    scan_plus_per_label_bound;
    scan_optimal_single_label;
    scan_per_label_optimal;
    greedy_selections_agree_on_size_invariant;
    monotone_in_lambda;
    huge_lambda_collapses;
    variable_lambda_covers;
    brute_matches_on_variable_lambda;
    kernel_variants_bit_identical;
    Alcotest.test_case "selection peaks bounded by candidates" `Quick
      test_selection_peaks_bounded;
    solver_dispatch_consistent;
  ]
