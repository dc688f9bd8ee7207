(* The Solver facade: naming round-trips, stats, and cross-algorithm
   size relations. *)

open Helpers

let test_name_roundtrips () =
  List.iter
    (fun algo ->
      Alcotest.(check bool) (Mqdp.Solver.algorithm_name algo) true
        (Mqdp.Solver.algorithm_of_string (Mqdp.Solver.algorithm_name algo) = Some algo))
    Mqdp.Solver.all_algorithms;
  List.iter
    (fun algo ->
      Alcotest.(check bool) (Mqdp.Solver.streaming_algorithm_name algo) true
        (Mqdp.Solver.streaming_algorithm_of_string
           (Mqdp.Solver.streaming_algorithm_name algo)
        = Some algo))
    Mqdp.Solver.all_streaming_algorithms;
  Alcotest.(check bool) "unknown name" true
    (Mqdp.Solver.algorithm_of_string "nonsense" = None);
  Alcotest.(check bool) "unknown streaming name" true
    (Mqdp.Solver.streaming_algorithm_of_string "nonsense" = None)

let test_result_fields () =
  let inst =
    instance_of [ post ~id:1 ~value:0. [ 0 ]; post ~id:2 ~value:10. [ 0 ] ]
  in
  let result = Mqdp.Solver.solve Mqdp.Solver.Scan inst (Mqdp.Coverage.Fixed 1.) in
  Alcotest.(check int) "size = length" (List.length result.Mqdp.Solver.cover)
    result.Mqdp.Solver.size;
  Alcotest.(check bool) "elapsed nonnegative" true (result.Mqdp.Solver.elapsed >= 0.);
  let streaming =
    Mqdp.Solver.solve_stream Mqdp.Solver.Instant ~tau:0. inst (Mqdp.Coverage.Fixed 1.)
  in
  Alcotest.(check int) "stream size = cover length"
    (List.length streaming.Mqdp.Solver.stream.Mqdp.Stream.cover)
    streaming.Mqdp.Solver.stream_size

let test_names_are_distinct () =
  let names = List.map Mqdp.Solver.algorithm_name Mqdp.Solver.all_algorithms in
  Alcotest.(check int) "offline distinct" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let snames =
    List.map Mqdp.Solver.streaming_algorithm_name Mqdp.Solver.all_streaming_algorithms
  in
  Alcotest.(check int) "streaming distinct" (List.length snames)
    (List.length (List.sort_uniq String.compare snames))

let exact_never_beaten =
  qtest ~count:100 "no approximation beats the exact solvers"
    (arb_instance_lambda ~max_posts:10 ~max_labels:3 ())
    (fun (inst, l) ->
      let lambda = Mqdp.Coverage.Fixed l in
      let size algo = (Mqdp.Solver.solve algo inst lambda).Mqdp.Solver.size in
      let exact = size Mqdp.Solver.Brute_force in
      List.for_all
        (fun algo -> size algo >= exact)
        [ Mqdp.Solver.Opt; Mqdp.Solver.Greedy_sc; Mqdp.Solver.Scan; Mqdp.Solver.Scan_plus ])

let streaming_never_beats_clairvoyant =
  qtest ~count:100 "no streaming algorithm beats the clairvoyant optimum"
    (QCheck.pair (arb_instance ~max_posts:10 ~max_labels:3 ())
       (QCheck.make QCheck.Gen.(float_bound_exclusive 4.)))
    (fun (inst, tau) ->
      let lambda = Mqdp.Coverage.Fixed 1.5 in
      let optimal = (Mqdp.Solver.solve Mqdp.Solver.Brute_force inst lambda).Mqdp.Solver.size in
      List.for_all
        (fun algo ->
          (Mqdp.Solver.solve_stream algo ~tau inst lambda).Mqdp.Solver.stream_size
          >= optimal)
        Mqdp.Solver.all_streaming_algorithms)

(* The parallel runtime's hard determinism requirement: any jobs count
   returns the same cover as sequential, for fixed and per-post lambdas. *)
let parallel_equals_sequential =
  qtest ~count:40 "solve ~jobs:4 is bit-identical to solve ~jobs:1"
    (arb_instance_lambda ~max_posts:25 ~max_labels:4 ~span:20. ())
    (fun (inst, l) ->
      let variable =
        Mqdp.Coverage.Per_post_label
          (fun p a -> 0.3 +. (0.4 *. float_of_int ((p.Mqdp.Post.id + a) mod 4)))
      in
      List.for_all
        (fun lambda ->
          List.for_all
            (fun algo ->
              let sequential = Mqdp.Solver.solve algo inst lambda in
              let parallel = Mqdp.Solver.solve ~jobs:4 algo inst lambda in
              if parallel.Mqdp.Solver.cover <> sequential.Mqdp.Solver.cover then
                QCheck.Test.fail_reportf "%s diverged under jobs=4 on %s"
                  (Mqdp.Solver.algorithm_name algo)
                  (describe_instance inst);
              true)
            [ Mqdp.Solver.Greedy_sc; Mqdp.Solver.Scan; Mqdp.Solver.Scan_plus ])
        [ Mqdp.Coverage.Fixed l; variable ])

let test_jobs_validation () =
  let inst = instance_of [ post ~id:1 ~value:0. [ 0 ] ] in
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Solver.solve: jobs < 1")
    (fun () ->
      ignore (Mqdp.Solver.solve ~jobs:0 Mqdp.Solver.Scan inst (Mqdp.Coverage.Fixed 1.)))

let suite =
  [
    Alcotest.test_case "name roundtrips" `Quick test_name_roundtrips;
    Alcotest.test_case "result fields" `Quick test_result_fields;
    Alcotest.test_case "names distinct" `Quick test_names_are_distinct;
    Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
    exact_never_beaten;
    streaming_never_beats_clairvoyant;
    parallel_equals_sequential;
  ]
