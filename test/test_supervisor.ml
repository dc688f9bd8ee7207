(* Resource governance: Supervisor ladder walking, budget exhaustion,
   salvage/seeding, typed refusals, and the per-rung circuit breaker.

   Degradation tests use step budgets, never wall-clock ones: steps are
   charged deterministically, so "OPT exhausts mid-run and GreedySC
   answers" is bit-reproducible on any machine. *)

let fixed l = Mqdp.Coverage.Fixed l

(* A dense instance: [posts] posts at regular spacing, two labels each,
   drawn from a universe of [labels]. Every label is populated and the
   coverage windows overlap heavily, which is the expensive regime for
   OPT's end-pattern enumeration. *)
let dense_instance ~posts ~labels ~spacing =
  List.init posts (fun i ->
      Helpers.post ~id:i
        ~value:(float_of_int i *. spacing)
        [ i mod labels; ((i * 7) + 3) mod labels ])
  |> Helpers.instance_of

(* Steps a computation needs, measured with a counting-only budget. *)
let steps_needed f =
  let b = Util.Budget.create () in
  ignore (f b);
  Util.Budget.spent_steps b

let check_valid name inst lambda cover =
  Alcotest.(check bool)
    (name ^ " is a valid cover")
    true
    (Mqdp.Coverage.is_cover inst lambda cover)

(* With an unlimited budget the supervisor is a transparent wrapper: the
   first rung answers and the cover is bit-identical to calling the
   algorithm directly. *)
let unlimited_is_transparent =
  Helpers.qtest "unlimited supervisor = direct solver"
    (Helpers.arb_instance_lambda ())
    (fun (inst, l) ->
      List.for_all
        (fun algorithm ->
          let lambda = fixed l in
          match Mqdp.Solver.run algorithm inst lambda with
          | direct ->
            let report =
              Mqdp.Supervisor.solve ~ladder:[ algorithm ] inst lambda
            in
            report.Mqdp.Supervisor.answered_by
            = Mqdp.Solver.algorithm_name algorithm
            && report.Mqdp.Supervisor.cover = direct
          | exception
              ( Mqdp.Opt.Too_large _ | Mqdp.Opt.Unsupported _
              | Mqdp.Brute_force.Too_large _ ) ->
            true)
        Mqdp.Solver.all_algorithms)

(* Seeds are honoured by every algorithm: the seed positions appear in the
   result and the result is still a valid cover (GreedySC and Scan+
   pre-mark the seed's coverage; the others union it in). *)
let seeds_are_sound =
  Helpers.qtest "seeded run: seed subset of valid result"
    (Helpers.arb_instance_lambda ())
    (fun (inst, l) ->
      let n = Mqdp.Instance.size inst in
      let seed = List.sort_uniq Int.compare [ 0; n / 2; n - 1 ] in
      let lambda = fixed l in
      List.for_all
        (fun algorithm ->
          match Mqdp.Solver.run ~seed algorithm inst lambda with
          | cover ->
            List.for_all (fun p -> List.mem p cover) seed
            && Mqdp.Coverage.is_cover inst lambda cover
          | exception
              ( Mqdp.Opt.Too_large _ | Mqdp.Opt.Unsupported _
              | Mqdp.Brute_force.Too_large _ ) ->
            true)
        Mqdp.Solver.all_algorithms)

(* Deterministic mid-OPT degradation: pick a step budget big enough for
   GreedySC's rung but too small for OPT's, and check the ladder hands
   over cleanly — OPT exhausts (salvaging nothing, its DP layers are not
   positions), GreedySC answers, and the cover equals running GreedySC
   directly. *)
let test_opt_exhausts_greedy_answers () =
  let inst = dense_instance ~posts:30 ~labels:5 ~spacing:0.5 in
  let lambda = fixed 1.5 in
  let s_opt =
    steps_needed (fun b -> Mqdp.Opt.solve ~budget:b inst lambda)
  in
  let s_greedy =
    steps_needed (fun b ->
        Mqdp.Solver.run ~budget:b Mqdp.Solver.Greedy_sc inst lambda)
  in
  (* Total budget T: OPT's child slice (T/2) must fall short of OPT's
     need, while GreedySC's child slice (~T/4) must exceed its own. *)
  let total = (4 * s_greedy) + 64 in
  Alcotest.(check bool)
    (Printf.sprintf "window exists (opt=%d greedy=%d)" s_opt s_greedy)
    true
    ((2 * s_greedy) + 32 < s_opt);
  let report =
    Mqdp.Supervisor.solve
      ~budget:(Util.Budget.create ~max_steps:total ())
      inst lambda
  in
  Alcotest.(check string) "greedy-sc answered" "greedy-sc"
    report.Mqdp.Supervisor.answered_by;
  (match report.Mqdp.Supervisor.attempts with
  | first :: second :: _ ->
    Alcotest.(check string) "opt attempted first" "opt"
      first.Mqdp.Supervisor.rung;
    (match first.Mqdp.Supervisor.outcome with
    | Mqdp.Supervisor.Exhausted Util.Budget.Steps -> ()
    | o ->
      Alcotest.failf "opt outcome: expected exhausted (steps), got %s"
        (Mqdp.Supervisor.outcome_to_string o));
    Alcotest.(check int) "opt salvages nothing to seed with" 0
      second.Mqdp.Supervisor.seeded_with
  | attempts ->
    Alcotest.failf "expected >= 2 attempts, got %d" (List.length attempts));
  Alcotest.(check Helpers.sorted_ints) "same cover as direct GreedySC"
    (Mqdp.Solver.run Mqdp.Solver.Greedy_sc inst lambda)
    report.Mqdp.Supervisor.cover;
  check_valid "degraded answer" inst lambda report.Mqdp.Supervisor.cover

(* A zero-step budget exhausts every ladder rung immediately; the
   unguarded instant floor still answers with a valid cover. *)
let test_zero_budget_reaches_instant () =
  let inst = dense_instance ~posts:30 ~labels:4 ~spacing:0.5 in
  let lambda = fixed 1.5 in
  let report =
    Mqdp.Supervisor.solve
      ~budget:(Util.Budget.create ~max_steps:0 ())
      inst lambda
  in
  Alcotest.(check string) "instant answered" "instant"
    report.Mqdp.Supervisor.answered_by;
  Alcotest.(check int) "all three rungs plus the floor recorded" 4
    (List.length report.Mqdp.Supervisor.attempts);
  check_valid "instant floor" inst lambda report.Mqdp.Supervisor.cover

(* OPT's pre-flight feasibility check: 24 populated labels imply a DP
   pattern space of at least 2^24 entries, so under a small allocation
   budget OPT must refuse with the typed exception — before allocating —
   rather than die in the middle of the table build. *)
let test_opt_infeasible_typed () =
  let inst = dense_instance ~posts:48 ~labels:24 ~spacing:0.25 in
  let lambda = fixed 1.0 in
  let budget = Util.Budget.create ~max_alloc_bytes:5e6 () in
  (match Mqdp.Opt.solve ~budget inst lambda with
  | _ -> Alcotest.fail "Opt.solve should refuse 24 labels under 5MB"
  | exception Mqdp.Opt.Infeasible { labels; bytes } ->
    Alcotest.(check int) "labels reported" 24 labels;
    Alcotest.(check bool) "bytes bound exceeds the budget" true (bytes > 5e6))

let test_supervisor_routes_infeasible () =
  let inst = dense_instance ~posts:48 ~labels:24 ~spacing:0.25 in
  let lambda = fixed 1.0 in
  let report =
    Mqdp.Supervisor.solve
      ~budget:(Util.Budget.create ~max_alloc_bytes:5e6 ())
      inst lambda
  in
  (match report.Mqdp.Supervisor.attempts with
  | first :: _ ->
    Alcotest.(check string) "opt attempted first" "opt"
      first.Mqdp.Supervisor.rung;
    (match first.Mqdp.Supervisor.outcome with
    | Mqdp.Supervisor.Refused msg ->
      Alcotest.(check bool)
        (Printf.sprintf "refusal names infeasibility: %s" msg)
        true
        (String.length msg >= 10 && String.sub msg 0 10 = "infeasible")
    | o ->
      Alcotest.failf "opt outcome: expected a refusal, got %s"
        (Mqdp.Supervisor.outcome_to_string o))
  | [] -> Alcotest.fail "no attempts recorded");
  Alcotest.(check bool) "a cheaper rung answered" true
    (report.Mqdp.Supervisor.answered_by <> "opt");
  check_valid "post-refusal answer" inst lambda report.Mqdp.Supervisor.cover

(* The acceptance scenario from the issue: |L| = 24, a 50ms budget, and
   the answer must still be a valid cover with the report naming the rung
   that produced it. *)
let test_acceptance_24_labels_50ms () =
  let inst = dense_instance ~posts:240 ~labels:24 ~spacing:0.05 in
  let lambda = fixed 1.0 in
  let report =
    Mqdp.Supervisor.solve
      ~budget:(Util.Budget.create ~deadline:0.05 ())
      inst lambda
  in
  Alcotest.(check bool) "a rung is named" true
    (report.Mqdp.Supervisor.answered_by <> "");
  Alcotest.(check bool) "attempts recorded" true
    (report.Mqdp.Supervisor.attempts <> []);
  check_valid "50ms answer" inst lambda report.Mqdp.Supervisor.cover

(* Branch-and-bound keeps a complete incumbent cover at all times, so
   cutting its budget one step short of what it needs must surface the
   incumbent as a Salvaged (already valid) answer, not fall through the
   ladder. *)
let test_brute_force_salvages_incumbent () =
  let inst = dense_instance ~posts:12 ~labels:3 ~spacing:0.6 in
  let lambda = fixed 1.8 in
  let needed =
    steps_needed (fun b ->
        Mqdp.Solver.run ~budget:b Mqdp.Solver.Brute_force inst lambda)
  in
  Alcotest.(check bool) "instance is nontrivial" true (needed > 1);
  let report =
    Mqdp.Supervisor.solve
      ~budget:(Util.Budget.create ~max_steps:(needed - 1) ())
      ~ladder:[ Mqdp.Solver.Brute_force ]
      inst lambda
  in
  Alcotest.(check string) "brute-force answered with its incumbent"
    "brute-force" report.Mqdp.Supervisor.answered_by;
  (match report.Mqdp.Supervisor.attempts with
  | [ only ] ->
    (match only.Mqdp.Supervisor.outcome with
    | Mqdp.Supervisor.Salvaged Util.Budget.Steps -> ()
    | o ->
      Alcotest.failf "expected salvaged (steps), got %s"
        (Mqdp.Supervisor.outcome_to_string o))
  | attempts ->
    Alcotest.failf "expected exactly 1 attempt, got %d" (List.length attempts));
  check_valid "salvaged incumbent" inst lambda report.Mqdp.Supervisor.cover

(* OPT's budget exception deliberately carries no partial: DP layers are
   end-patterns, not committed positions. *)
let test_opt_salvages_nothing () =
  let inst = dense_instance ~posts:30 ~labels:5 ~spacing:0.5 in
  match Mqdp.Opt.solve ~budget:(Util.Budget.create ~max_steps:50 ()) inst (fixed 1.5) with
  | _ -> Alcotest.fail "50 steps should not complete OPT here"
  | exception Mqdp.Interrupt.Budget_exceeded { reason; partial } ->
    Alcotest.(check bool) "steps reason" true (reason = Util.Budget.Steps);
    (match partial with
    | Mqdp.Interrupt.No_partial -> ()
    | Mqdp.Interrupt.Partial_cover ps ->
      Alcotest.failf "OPT salvaged %d positions; expected none" (List.length ps))

(* ladder_from: a suffix of the default ladder for members, a singleton
   for outsiders. *)
let test_ladder_from () =
  Alcotest.(check bool) "scan+ suffix" true
    (Mqdp.Supervisor.ladder_from Mqdp.Solver.Scan_plus = [ Mqdp.Solver.Scan_plus ]);
  Alcotest.(check bool) "greedy suffix" true
    (Mqdp.Supervisor.ladder_from Mqdp.Solver.Greedy_sc
    = [ Mqdp.Solver.Greedy_sc; Mqdp.Solver.Scan_plus ]);
  Alcotest.(check bool) "opt = whole ladder" true
    (Mqdp.Supervisor.ladder_from Mqdp.Solver.Opt = Mqdp.Supervisor.default_ladder);
  Alcotest.(check bool) "non-member is a singleton" true
    (Mqdp.Supervisor.ladder_from Mqdp.Solver.Brute_force
    = [ Mqdp.Solver.Brute_force ])

(* The instant floor is valid under both λ families without any budget. *)
let test_instant_floor_valid () =
  let inst = dense_instance ~posts:50 ~labels:6 ~spacing:0.3 in
  let lambda = fixed 1.2 in
  check_valid "fixed lambda floor" inst lambda
    (Mqdp.Supervisor.instant_cover inst lambda);
  let directional = Mqdp.Coverage.Per_post_label (fun _ _ -> 0.7) in
  check_valid "per-post lambda floor" inst directional
    (Mqdp.Supervisor.instant_cover inst directional)

(* Breaker unit behaviour: threshold opens the circuit, success closes
   it, an elapsed cooldown allows a half-open trial, and a failed trial
   re-arms the cooldown. *)
let test_breaker_threshold_and_reset () =
  let b = Mqdp.Supervisor.Breaker.create ~threshold:2 ~cooldown:1000. () in
  Alcotest.(check bool) "fresh rung available" true
    (Mqdp.Supervisor.Breaker.available b "opt");
  Mqdp.Supervisor.Breaker.record_failure b "opt";
  Alcotest.(check int) "one failure" 1 (Mqdp.Supervisor.Breaker.failures b "opt");
  Alcotest.(check bool) "below threshold still available" true
    (Mqdp.Supervisor.Breaker.available b "opt");
  Mqdp.Supervisor.Breaker.record_failure b "opt";
  Alcotest.(check bool) "circuit open" false
    (Mqdp.Supervisor.Breaker.available b "opt");
  Alcotest.(check bool) "other rungs unaffected" true
    (Mqdp.Supervisor.Breaker.available b "greedy-sc");
  Mqdp.Supervisor.Breaker.record_success b "opt";
  Alcotest.(check int) "success resets the count" 0
    (Mqdp.Supervisor.Breaker.failures b "opt");
  Alcotest.(check bool) "closed again" true
    (Mqdp.Supervisor.Breaker.available b "opt")

let test_breaker_half_open () =
  let b = Mqdp.Supervisor.Breaker.create ~threshold:1 ~cooldown:0. () in
  Mqdp.Supervisor.Breaker.record_failure b "opt";
  (* cooldown 0: the half-open trial is allowed immediately *)
  Alcotest.(check bool) "half-open after cooldown" true
    (Mqdp.Supervisor.Breaker.available b "opt");
  let armed = Mqdp.Supervisor.Breaker.create ~threshold:1 ~cooldown:1000. () in
  Mqdp.Supervisor.Breaker.record_failure armed "opt";
  Alcotest.(check bool) "long cooldown keeps it open" false
    (Mqdp.Supervisor.Breaker.available armed "opt")

let test_breaker_validation () =
  Alcotest.check_raises "threshold < 1"
    (Invalid_argument "Supervisor.Breaker.create: threshold < 1") (fun () ->
      ignore (Mqdp.Supervisor.Breaker.create ~threshold:0 ()));
  Alcotest.check_raises "cooldown < 0"
    (Invalid_argument "Supervisor.Breaker.create: cooldown < 0") (fun () ->
      ignore (Mqdp.Supervisor.Breaker.create ~cooldown:(-1.) ()))

(* Spawn [n] domains that all start on a shared barrier and run [f i];
   join them all, re-raising the first failure. *)
let in_domains n f =
  let barrier = Atomic.make 0 in
  let domains =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < n do
              Domain.cpu_relax ()
            done;
            f i))
  in
  List.iter Domain.join domains

(* The breaker is shared by every domain supervising the same profile, so
   concurrent transitions must never tear its state: whatever the
   interleaving, the failure count stays in range and the circuit is
   either cleanly closed or cleanly open. *)
let test_breaker_multi_domain_hammer () =
  let b = Mqdp.Supervisor.Breaker.create ~threshold:3 ~cooldown:1000. () in
  let rounds = 2_000 in
  in_domains 4 (fun i ->
      for k = 1 to rounds do
        ignore (Mqdp.Supervisor.Breaker.available b "opt");
        if (k + i) mod 3 = 0 then Mqdp.Supervisor.Breaker.record_success b "opt"
        else Mqdp.Supervisor.Breaker.record_failure b "opt";
        ignore (Mqdp.Supervisor.Breaker.failures b "opt")
      done);
  let f = Mqdp.Supervisor.Breaker.failures b "opt" in
  Alcotest.(check bool)
    (Printf.sprintf "failure count %d within the recorded range" f)
    true
    (f >= 0 && f <= 4 * rounds);
  (* The breaker still behaves sequentially after the barrage. *)
  Mqdp.Supervisor.Breaker.record_success b "opt";
  Alcotest.(check int) "success closes the circuit" 0
    (Mqdp.Supervisor.Breaker.failures b "opt");
  Alcotest.(check bool) "available once closed" true
    (Mqdp.Supervisor.Breaker.available b "opt")

(* The half-open race, driven from multiple domains: after the cooldown
   elapses, several domains may each observe the rung as available and run
   a trial concurrently. If every trial fails, the circuit must end up
   open again with the cooldown re-armed — no interleaving may leave it
   closed, and no failure may be lost mid-transition. *)
let test_breaker_half_open_race_multi_domain () =
  let threshold = 2 in
  let b =
    Mqdp.Supervisor.Breaker.create ~threshold ~cooldown:0.02 ()
  in
  for _ = 1 to threshold do
    Mqdp.Supervisor.Breaker.record_failure b "opt"
  done;
  (* Wait out the cooldown so every domain sees the half-open window. *)
  let deadline = Util.Timer.now () +. 5. in
  while
    (not (Mqdp.Supervisor.Breaker.available b "opt"))
    && Util.Timer.now () < deadline
  do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "half-open after cooldown" true
    (Mqdp.Supervisor.Breaker.available b "opt");
  let trials = Atomic.make 0 in
  in_domains 4 (fun _ ->
      if Mqdp.Supervisor.Breaker.available b "opt" then begin
        Atomic.incr trials;
        Mqdp.Supervisor.Breaker.record_failure b "opt"
      end);
  Alcotest.(check bool) "at least one domain ran a half-open trial" true
    (Atomic.get trials >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "failed trials re-open the circuit (failures=%d)"
       (Mqdp.Supervisor.Breaker.failures b "opt"))
    true
    (Mqdp.Supervisor.Breaker.failures b "opt" >= threshold);
  Alcotest.(check bool) "cooldown re-armed: circuit closed to callers" false
    (Mqdp.Supervisor.Breaker.available b "opt");
  (* One successful trial from any domain closes it for everyone. *)
  Mqdp.Supervisor.Breaker.record_success b "opt";
  in_domains 2 (fun _ ->
      if not (Mqdp.Supervisor.Breaker.available b "opt") then
        failwith "closed circuit not visible across domains")

(* Breaker integration: a rung that burned its budget once is skipped on
   the next solve (threshold 1, long cooldown), and the report says so. *)
let test_breaker_skips_failed_rung () =
  let inst = dense_instance ~posts:30 ~labels:5 ~spacing:0.5 in
  let lambda = fixed 1.5 in
  let breaker = Mqdp.Supervisor.Breaker.create ~threshold:1 ~cooldown:1000. () in
  let s_greedy =
    steps_needed (fun b ->
        Mqdp.Solver.run ~budget:b Mqdp.Solver.Greedy_sc inst lambda)
  in
  let budget () = Util.Budget.create ~max_steps:((4 * s_greedy) + 64) () in
  let first = Mqdp.Supervisor.solve ~budget:(budget ()) ~breaker inst lambda in
  Alcotest.(check string) "first call degrades past opt" "greedy-sc"
    first.Mqdp.Supervisor.answered_by;
  Alcotest.(check int) "opt failure recorded" 1
    (Mqdp.Supervisor.Breaker.failures breaker "opt");
  let second = Mqdp.Supervisor.solve ~budget:(budget ()) ~breaker inst lambda in
  (match second.Mqdp.Supervisor.attempts with
  | first_attempt :: _ ->
    Alcotest.(check string) "opt still heads the ladder" "opt"
      first_attempt.Mqdp.Supervisor.rung;
    Alcotest.(check bool) "but the circuit is open" true
      (first_attempt.Mqdp.Supervisor.outcome = Mqdp.Supervisor.Skipped_breaker)
  | [] -> Alcotest.fail "no attempts recorded");
  check_valid "second answer" inst lambda second.Mqdp.Supervisor.cover

(* A payload-carrying Budget_exceeded raised inside a pool worker arrives
   at the submitter intact — the supervisor's salvage path depends on the
   pool never wrapping or rebuilding the exception. *)
let test_pool_preserves_budget_payload () =
  Util.Pool.with_pool ~jobs:3 (fun pool ->
      match
        Util.Pool.parallel_for pool ~chunk:1 32 ~f:(fun i ->
            if i = 9 then
              raise
                (Mqdp.Interrupt.Budget_exceeded
                   {
                     reason = Util.Budget.Steps;
                     partial = Mqdp.Interrupt.Partial_cover [ 3; 1; 2 ];
                   }))
      with
      | () -> Alcotest.fail "exception vanished in the pool"
      | exception Mqdp.Interrupt.Budget_exceeded { reason; partial } ->
        Alcotest.(check bool) "reason intact" true (reason = Util.Budget.Steps);
        Alcotest.(check Helpers.sorted_ints) "partial intact" [ 1; 2; 3 ]
          (Mqdp.Interrupt.positions_of partial))

(* Cancellation beats every other limit and compile never leaks a
   half-built index: a pre-cancelled budget makes Solver.compile raise
   with reason Cancelled before any geometry escapes. *)
let test_compile_cancellation () =
  let inst = dense_instance ~posts:60 ~labels:8 ~spacing:0.3 in
  let budget = Util.Budget.create ~max_steps:max_int () in
  Util.Budget.cancel budget;
  match Mqdp.Solver.compile ~budget inst (fixed 1.5) with
  | _ -> Alcotest.fail "compile under a cancelled budget returned an index"
  | exception Mqdp.Interrupt.Budget_exceeded { reason; _ } ->
    Alcotest.(check bool) "cancellation reported" true
      (reason = Util.Budget.Cancelled)

(* Ladder under tiny step budgets (1..24): every rung's child budget used
   to floor to 0 steps for small remainders, making speculative rungs trip
   before doing any work. Whatever the budget, the answer must be a valid
   cover, and the walk must be deterministic (steps are charged exactly,
   never by the clock). *)
let test_ladder_tiny_step_budgets () =
  let inst = dense_instance ~posts:12 ~labels:3 ~spacing:1.0 in
  let lambda = fixed 2.5 in
  for steps = 1 to 24 do
    let solve () =
      Mqdp.Supervisor.solve
        ~budget:(Util.Budget.create ~max_steps:steps ())
        inst lambda
    in
    let r1 = solve () and r2 = solve () in
    check_valid (Printf.sprintf "budget %d answer" steps) inst lambda
      r1.Mqdp.Supervisor.cover;
    Alcotest.(check string)
      (Printf.sprintf "budget %d deterministic rung" steps)
      r1.Mqdp.Supervisor.answered_by r2.Mqdp.Supervisor.answered_by;
    Alcotest.(check (list int))
      (Printf.sprintf "budget %d deterministic cover" steps)
      r1.Mqdp.Supervisor.cover r2.Mqdp.Supervisor.cover
  done

(* --- the ladder on a live window ------------------------------------ *)

(* Per-post λ for the windowed checks (pure, as the window requires). *)
let variable =
  Mqdp.Coverage.Per_post_label
    (fun p a -> 0.5 +. (0.1 *. float_of_int ((p.Mqdp.Post.id mod 7) + a)))

(* A breaker with the first [k] rungs of [ladder] tripped: threshold 1
   and an hour's cooldown, so each one is skipped for the whole test. *)
let tripped ladder k =
  let b = Mqdp.Supervisor.Breaker.create ~threshold:1 ~cooldown:3600. () in
  List.iteri
    (fun i a ->
      if i < k then Mqdp.Supervisor.Breaker.record_failure b (Mqdp.Solver.algorithm_name a))
    ladder;
  b

(* solve_window on a live window answers exactly as solve on its
   materialized copy: for a ladder starting at every algorithm, with 0..all
   of its rungs tripped, so fallbacks and the instant floor answer too. *)
let window_matches_instance =
  Helpers.qtest ~count:150 "solve_window = solve on to_instance"
    Test_window_index.arb_slice
    (fun (inst, l, head) ->
      List.for_all
        (fun lambda ->
          let w = Test_window_index.window_of_slice lambda inst ~head in
          let slice = Mqdp.Window_index.to_instance w in
          let solver = Mqdp.Greedy_sc.window_solver () in
          List.for_all
            (fun start ->
              let ladder = Mqdp.Supervisor.ladder_from start in
              List.for_all
                (fun k ->
                  let a = Mqdp.Supervisor.solve ~breaker:(tripped ladder k) ~ladder slice lambda in
                  let b =
                    Mqdp.Supervisor.solve_window ~breaker:(tripped ladder k) ~ladder ~solver w
                  in
                  if
                    a.Mqdp.Supervisor.answered_by <> b.Mqdp.Supervisor.answered_by
                    || a.Mqdp.Supervisor.cover <> b.Mqdp.Supervisor.cover
                    || a.Mqdp.Supervisor.size <> b.Mqdp.Supervisor.size
                  then
                    QCheck.Test.fail_reportf "ladder from %s, %d tripped: %s [%s] vs window %s [%s]"
                      (Mqdp.Solver.algorithm_name start) k a.Mqdp.Supervisor.answered_by
                      (String.concat ";" (List.map string_of_int a.Mqdp.Supervisor.cover))
                      b.Mqdp.Supervisor.answered_by
                      (String.concat ";" (List.map string_of_int b.Mqdp.Supervisor.cover));
                  Mqdp.Coverage.is_cover slice lambda b.Mqdp.Supervisor.cover)
                (List.init (List.length ladder + 1) Fun.id))
            Mqdp.Solver.all_algorithms)
        [ fixed l; variable ])

(* The salvage handoff carries over to the window: GreedySC runs out of
   steps after a few picks, and those picks seed the next rung — or, when
   GreedySC is the last rung, are kept by the instant floor. *)
let test_window_handoff () =
  (* λ = 2: GreedySC's first picks are not ones the instant floor makes
     anyway, so the floor's cover shows whether it kept them. *)
  let inst = dense_instance ~posts:40 ~labels:4 ~spacing:0.5 in
  let lambda = fixed 2.0 in
  let w = Test_window_index.window_of_slice lambda inst ~head:0 in
  let n = Mqdp.Window_index.size w in
  (* GreedySC's half: the snapshot (n steps) plus three pops. *)
  let budget = Util.Budget.create ~max_steps:(2 * (n + 3)) () in
  let report =
    Mqdp.Supervisor.solve_window ~budget
      ~ladder:[ Mqdp.Solver.Greedy_sc; Mqdp.Solver.Scan_plus ] w
  in
  (match report.Mqdp.Supervisor.attempts with
  | first :: second :: _ ->
    Alcotest.(check string) "greedy first" "greedy-sc" first.Mqdp.Supervisor.rung;
    (match first.Mqdp.Supervisor.outcome with
    | Mqdp.Supervisor.Exhausted Util.Budget.Steps -> ()
    | o ->
      Alcotest.failf "greedy outcome: expected exhausted (steps), got %s"
        (Mqdp.Supervisor.outcome_to_string o));
    (* The same half-budget, spent by GreedySC alone, salvages these. *)
    let salvage =
      match
        Mqdp.Greedy_sc.solve_window ~budget:(Util.Budget.create ~max_steps:(n + 3) ()) w
      with
      | _ -> Alcotest.fail "GreedySC finished inside n + 3 steps"
      | exception Mqdp.Interrupt.Budget_exceeded { partial; _ } ->
        Mqdp.Interrupt.positions_of partial
    in
    Alcotest.(check bool) "GreedySC picked before running out" true (salvage <> []);
    Alcotest.(check int) "its picks seed the next rung" (List.length salvage)
      second.Mqdp.Supervisor.seeded_with;
    List.iter
      (fun p ->
        Alcotest.(check bool)
          (Printf.sprintf "salvaged position %d kept" p)
          true
          (List.mem p report.Mqdp.Supervisor.cover))
      salvage
  | attempts -> Alcotest.failf "expected >= 2 attempts, got %d" (List.length attempts));
  check_valid "handed-off answer" (Mqdp.Window_index.to_instance w) lambda
    report.Mqdp.Supervisor.cover;
  (* Alone on the ladder, GreedySC gets the whole budget; the floor keeps its picks. *)
  let budget () = Util.Budget.create ~max_steps:(n + 3) () in
  let salvage =
    match Mqdp.Greedy_sc.solve_window ~budget:(budget ()) w with
    | _ -> Alcotest.fail "GreedySC finished inside n + 3 steps"
    | exception Mqdp.Interrupt.Budget_exceeded { partial; _ } ->
      Mqdp.Interrupt.positions_of partial
  in
  let floor =
    Mqdp.Supervisor.solve_window ~budget:(budget ()) ~ladder:[ Mqdp.Solver.Greedy_sc ] w
  in
  Alcotest.(check string) "the floor answers" "instant" floor.Mqdp.Supervisor.answered_by;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "floor keeps salvaged position %d" p)
        true
        (List.mem p floor.Mqdp.Supervisor.cover))
    salvage;
  check_valid "floor answer" (Mqdp.Window_index.to_instance w) lambda
    floor.Mqdp.Supervisor.cover;
  (* What a rung does with its seed: the same as on the copy, on both the
     in-place and the copying path. *)
  let seed = [ 0; n / 2; n - 1 ] in
  List.iter
    (fun algorithm ->
      Alcotest.(check (list int))
        (Mqdp.Solver.algorithm_name algorithm ^ " seeded as on the copy")
        (Mqdp.Solver.run ~seed algorithm (Mqdp.Window_index.to_instance w) lambda)
        (Mqdp.Solver.solve_window ~seed algorithm w).Mqdp.Solver.cover)
    [ Mqdp.Solver.Greedy_sc; Mqdp.Solver.Greedy_sc_linear; Mqdp.Solver.Scan_plus ]

(* A fallback rung answers with what it makes of the salvage it is
   handed. On this instance Scan+ runs out of steps with a partial cover,
   and GreedySC seeded with it answers larger than GreedySC alone, so a
   walk that dropped the seed would answer differently — through the
   instance and through the window alike. *)
let test_fallback_runs_seeded () =
  let lambda = fixed 2.0 in
  let w = Mqdp.Window_index.create lambda in
  List.iteri
    (fun id (value, labels) -> Mqdp.Window_index.push w (Helpers.post ~id ~value labels))
    [ (2., [ 0; 2 ]); (3., [ 0 ]); (8., [ 0; 1 ]); (9., [ 1; 2 ]); (9., [ 0 ]); (10., [ 1 ]);
      (10., [ 0 ]); (11., [ 1; 2 ]) ];
  let inst = Mqdp.Window_index.to_instance w in
  let ladder = [ Mqdp.Solver.Scan_plus; Mqdp.Solver.Greedy_sc ] in
  let unseeded = Mqdp.Solver.run Mqdp.Solver.Greedy_sc inst lambda in
  let check path ~steps ~scan ~answer =
    (* Scan+ leads the ladder, so it runs on half the budget. *)
    let salvage =
      match scan (Util.Budget.create ~max_steps:(steps / 2) ()) with
      | _ -> Alcotest.failf "%s: Scan+ finished inside %d steps" path (steps / 2)
      | exception Mqdp.Interrupt.Budget_exceeded { partial; _ } ->
        Mqdp.Interrupt.positions_of partial
    in
    let seeded = Mqdp.Solver.run ~seed:salvage Mqdp.Solver.Greedy_sc inst lambda in
    Alcotest.(check bool) (path ^ ": the seed changes the answer's size") true
      (List.length seeded <> List.length unseeded);
    let report = answer (Util.Budget.create ~max_steps:steps ()) in
    Alcotest.(check string) (path ^ ": GreedySC answers") "greedy-sc"
      report.Mqdp.Supervisor.answered_by;
    Alcotest.(check (list int)) (path ^ ": the seeded GreedySC cover") seeded
      report.Mqdp.Supervisor.cover
  in
  check "solve" ~steps:61
    ~scan:(fun budget -> Mqdp.Solver.run ~budget Mqdp.Solver.Scan_plus inst lambda)
    ~answer:(fun budget -> Mqdp.Supervisor.solve ~budget ~ladder inst lambda);
  check "solve_window" ~steps:44
    ~scan:(fun budget -> (Mqdp.Solver.solve_window ~budget Mqdp.Solver.Scan_plus w).Mqdp.Solver.cover)
    ~answer:(fun budget -> Mqdp.Supervisor.solve_window ~budget ~ladder w)

let suite =
  [
    unlimited_is_transparent;
    seeds_are_sound;
    Alcotest.test_case "ladder under tiny step budgets" `Quick
      test_ladder_tiny_step_budgets;
    Alcotest.test_case "mid-OPT steps budget degrades to GreedySC" `Quick
      test_opt_exhausts_greedy_answers;
    Alcotest.test_case "zero budget reaches the instant floor" `Quick
      test_zero_budget_reaches_instant;
    Alcotest.test_case "opt refuses infeasible table (typed)" `Quick
      test_opt_infeasible_typed;
    Alcotest.test_case "supervisor routes infeasibility refusal" `Quick
      test_supervisor_routes_infeasible;
    Alcotest.test_case "acceptance: 24 labels under 50ms" `Quick
      test_acceptance_24_labels_50ms;
    Alcotest.test_case "brute-force salvages its incumbent" `Quick
      test_brute_force_salvages_incumbent;
    Alcotest.test_case "opt exhaustion carries no partial" `Quick
      test_opt_salvages_nothing;
    Alcotest.test_case "ladder_from suffixes" `Quick test_ladder_from;
    Alcotest.test_case "instant floor valid under both lambdas" `Quick
      test_instant_floor_valid;
    Alcotest.test_case "breaker threshold and reset" `Quick
      test_breaker_threshold_and_reset;
    Alcotest.test_case "breaker half-open after cooldown" `Quick
      test_breaker_half_open;
    Alcotest.test_case "breaker validation" `Quick test_breaker_validation;
    Alcotest.test_case "breaker skips a burned rung" `Quick
      test_breaker_skips_failed_rung;
    Alcotest.test_case "breaker survives a multi-domain hammer" `Quick
      test_breaker_multi_domain_hammer;
    Alcotest.test_case "breaker half-open race across domains" `Quick
      test_breaker_half_open_race_multi_domain;
    Alcotest.test_case "pool preserves Budget_exceeded payload" `Quick
      test_pool_preserves_budget_payload;
    Alcotest.test_case "compile honours cancellation" `Quick
      test_compile_cancellation;
    window_matches_instance;
    Alcotest.test_case "window ladder hands salvage on" `Quick test_window_handoff;
    Alcotest.test_case "fallback rung runs seeded" `Quick test_fallback_runs_seeded;
  ]
