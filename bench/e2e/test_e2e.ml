(* Tests for the benchmark's pure logic: the percentile rule, open-loop
   timing from the due time, the EMIT-set comparison, the result line,
   and the --compare verdicts. *)

let floats = Alcotest.(array (float 1e-12))

let test_percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* p99 of 1000 samples leaves exactly 10 beyond it. *)
  (match Sample.percentile ~p:99. (xs 1000) with
  | Ok v -> Alcotest.(check (float 0.)) "p99 of 1..1000" 990. v
  | Error e -> Alcotest.fail e);
  (match Sample.percentile ~p:99. (xs 999) with
  | Ok _ -> Alcotest.fail "p99 of 999 samples must be refused"
  | Error _ -> ());
  (match Sample.percentile ~p:90. (xs 100) with
  | Ok v -> Alcotest.(check (float 0.)) "p90 of 1..100" 90. v
  | Error e -> Alcotest.fail e);
  (match Sample.percentile ~p:90. (xs 99) with
  | Ok _ -> Alcotest.fail "p90 of 99 samples must be refused"
  | Error _ -> ());
  match Sample.percentile ~p:50. [| 3.; 1.; 2.; 5.; 4.; 9.; 8.; 7.; 6.; 10.; 11.; 12.; 13.; 14.; 15.; 16.; 17.; 18.; 19.; 20. |] with
  | Ok v -> Alcotest.(check (float 0.)) "p50 is order-free" 10. v
  | Error e -> Alcotest.fail e

let test_quartiles_match_python () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Sample.quartiles (Array.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.(check floats) "quartiles" [| 2.75; 5.5; 8.25 |] [| q1; q2; q3 |]

let test_latency_from_due () =
  (* Requests due every 10 ms; the second stalls 50 ms and the third goes
     out only after it. Timing from the due time charges the stall to
     both; timing from the send time would hide it from the third. *)
  let due = [| 0.; 0.01; 0.02 |] and completed = [| 100.001; 100.061; 100.0615 |] in
  let lat = Sample.from_due ~start:100. ~due ~completed in
  Alcotest.(check floats) "from due" [| 0.001; 0.051; 0.0415 |] lat

let emits lines =
  let t = Emits.create () in
  List.iter (fun (p, ls) -> Emits.add_response t ~profile:p ls) lines;
  t

let test_emit_diff () =
  let report seq ids =
    List.map (fun (e, id) -> Printf.sprintf "%d EMIT %d %d 4000000000000000" seq e id) ids
    @ [ Printf.sprintf "%d OK %d" seq (List.length ids) ]
  in
  (* The loopback run drained p1 in two REPORTs, the reference in one:
     the unions agree. *)
  let loopback = emits [ ("p1", report 5 [ (1, 10) ]); ("p1", report 9 [ (2, 11) ]); ("p2", report 6 []) ] in
  let reference = emits [ ("p1", report 40 [ (1, 10); (2, 11) ]); ("p2", report 41 []) ] in
  Alcotest.(check int) "EMIT lines kept" 2 (Emits.count loopback);
  Alcotest.(check (list (triple string int int))) "equal unions" []
    (Emits.diff ~expected:reference ~actual:loopback);
  (* A deliberately wrong reference must fail. *)
  let wrong = emits [ ("p1", report 40 [ (1, 10); (2, 12) ]) ] in
  Alcotest.(check (list (triple string int int)))
    "wrong reference" [ ("p1", 1, 1) ]
    (Emits.diff ~expected:wrong ~actual:loopback);
  (* Reporting an emission twice is a failure too. *)
  let twice = emits [ ("p1", report 5 [ (1, 10); (2, 11) ]); ("p1", report 9 [ (2, 11) ]) ] in
  Alcotest.(check (list (triple string int int)))
    "duplicate" [ ("p1", 0, 1) ]
    (Emits.diff ~expected:reference ~actual:twice)

let test_result_round_trip () =
  let r =
    {
      Report.correct = true;
      attempted = 31337;
      failed = 0;
      metrics =
        [
          { Report.name = "latency_ms"; value = 1.2034000000000001; unit_ = "ms" };
          { Report.name = "setup_s"; value = 0.8127; unit_ = "s" };
          { Report.name = "throughput_rps"; value = 4217.25; unit_ = "req/s" };
          { Report.name = "tiny"; value = 3.2e-7; unit_ = "s" };
        ];
    }
  in
  let line = Report.to_line r in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  let back = Report.of_json (Json.of_string line) in
  Alcotest.(check bool) "correct" r.correct back.correct;
  Alcotest.(check int) "attempted" r.attempted back.attempted;
  Alcotest.(check int) "failed" r.failed back.failed;
  List.iter2
    (fun (a : Report.metric) (b : Report.metric) ->
      Alcotest.(check string) "name" a.name b.name;
      Alcotest.(check string) "unit" a.unit_ b.unit_;
      Alcotest.(check bool) (a.name ^ " exact") true (Float.equal a.value b.value))
    r.metrics back.metrics;
  let runs = [ { Report.workload = "fanout"; seed = 3; result = r } ] in
  let again = Report.runs_of_json (Json.of_string (Json.to_string (Report.runs_to_json runs))) in
  Alcotest.(check floats) "series" [| 4217.25 |]
    (Report.series again ~workload:"fanout" ~metric:"throughput_rps")

let test_compare_verdicts () =
  let judge better parent change =
    Verdict.to_string (Verdict.judge ~better ~bound:0.1 ~parent ~change)
  in
  let parent = [| 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100. |] in
  let shift d = Array.map (fun x -> x +. d) parent in
  Alcotest.(check string) "lower latency, every pair" "better" (judge Verdict.Lower parent (shift (-5.)));
  Alcotest.(check string) "higher latency, every pair" "worse" (judge Verdict.Lower parent (shift 5.));
  Alcotest.(check string) "higher throughput" "better" (judge Verdict.Higher parent (shift 5.));
  Alcotest.(check string) "noise" "unchanged" (judge Verdict.Lower parent (Array.map (fun x -> 200. -. x) parent));
  (* 8 of 10 pair wins is not enough, and the gap stays within the bound. *)
  let mixed = Array.mapi (fun i x -> if i < 8 then x -. 3. else x +. 3.) parent in
  Alcotest.(check string) "8/10 wins" "unchanged" (judge Verdict.Lower parent mixed);
  (* Beyond the bound is a regression even without 9/10 losses. *)
  let slow = Array.mapi (fun i x -> if i < 7 then x *. 1.3 else x *. 0.99) parent in
  Alcotest.(check string) "median 30% worse" "worse" (judge Verdict.Lower parent slow);
  (* A parent spread wider than the bound cannot show "unchanged". *)
  let wide = [| 50.; 150.; 70.; 130.; 90.; 110.; 60.; 140.; 80.; 120. |] in
  Alcotest.(check string) "wide spread" "unresolved"
    (judge Verdict.Lower wide (Array.map (fun x -> x +. 1.) (Array.of_list (List.rev (Array.to_list wide)))))

(* BENCHMARK.json must list exactly Spec's metrics and the run length the
   scripts are built for. *)
let test_spec_check () =
  let metric name unit_ better extra =
    Json.Obj
      ([ ("name", Json.Str name); ("unit", Json.Str unit_); ("better", Json.Str (Spec.direction_string better)) ]
      @ extra)
  in
  let doc ~run_seconds ~e2e =
    Json.Obj
      [
        ("run_seconds", Json.Num run_seconds);
        ( "end_to_end",
          Json.Arr
            (List.map
               (fun (m : Spec.e2e) -> metric m.name m.unit_ m.better [ ("bound", Json.Num m.bound) ])
               e2e) );
        ("per_layer", Json.Arr (List.map (fun (n, u, b) -> metric n u b []) Spec.per_layer));
      ]
  in
  let problems json = List.length (Spec.check ~run_seconds:10 json) in
  Alcotest.(check int) "agreeing file" 0 (problems (doc ~run_seconds:10. ~e2e:Spec.e2e));
  Alcotest.(check int) "another run length" 1 (problems (doc ~run_seconds:5. ~e2e:Spec.e2e));
  let widened = List.map (fun (m : Spec.e2e) -> { m with bound = m.bound +. 0.05 }) Spec.e2e in
  Alcotest.(check int) "other bounds" (List.length Spec.e2e)
    (problems (doc ~run_seconds:10. ~e2e:widened))

let test_json_parse () =
  let v = Json.of_string {|{"a":[1,2.5,-3e2],"b":"x\"yA","c":true,"d":null}|} in
  Alcotest.(check string) "round trip" {|{"a":[1,2.5,-300],"b":"x\"yA","c":true,"d":null}|}
    (Json.to_string v);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Json.Parse_error _ -> ())
    [ "{"; "[1,]"; {|{"a" 1}|}; "tru"; "1 2"; {|"unterminated|} ]

let () =
  Alcotest.run "e2e"
    [
      ( "bench-e2e",
        [
          Alcotest.test_case "percentile needs 10 samples beyond" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles_match_python;
          Alcotest.test_case "latency timed from the due time" `Quick test_latency_from_due;
          Alcotest.test_case "EMIT-set diff" `Quick test_emit_diff;
          Alcotest.test_case "result line round-trip" `Quick test_result_round_trip;
          Alcotest.test_case "compare verdicts" `Quick test_compare_verdicts;
          Alcotest.test_case "BENCHMARK.json agreement" `Quick test_spec_check;
          Alcotest.test_case "json parser" `Quick test_json_parse;
        ] );
    ]
