(* Differential fuzzer: cross-checks every solver against the exact ones
   on randomized instances until a time budget expires. Exits non-zero and
   prints the reproducing seed on the first discrepancy — the tool to run
   after touching any algorithm.

   usage: mqdp_fuzz [--fault <drop|clamp|raise|mixed> | --budget | --window
                    | --serve | --transport]
                    [seconds (default 10)] [start-seed (default 1)]

   With --fault the tool switches from differential solver checks to the
   hardened-frontend torture loop: every round builds a clean stream,
   corrupts it (drops, duplicates, clock skew, bursts, injected non-finite
   timestamps), runs it through Mqdp.Feed under the given policy twice —
   once uninterrupted, once crash/checkpoint/restored at Fault-chosen push
   boundaries — and checks that nothing crashes, both runs emit
   bit-identical streams, every delivered post is λ-covered within its
   deadline, and the overload budget is honored.

   With --budget the tool tortures the resource governor instead: random
   instances are solved through Mqdp.Supervisor under random tiny budgets
   (steps / deadline / allocation / combinations) and the loop checks that
   every answer is Coverage-valid no matter which ladder rung produced it,
   that steps-only budgets degrade deterministically, that an unlimited
   budget reproduces the direct solver call bit-for-bit, that a cancelled
   or exhausted Solver.compile leaves no observable half-compiled state,
   and that pre-cancelled budgets abort with Cancelled before any work.

   With --window the tool tortures the sliding-window geometry: every
   round drives a Window_index through a random interleaving of push
   batches, expiries (by time and by count), solves (every selection
   strategy, with a reused scratch solver, occasionally against a domain
   pool), and export/import round-trips — and after every solve
   cross-checks the cover bit-for-bit against a fresh Pair_index.build
   over the materialized live posts, under fixed and per-post λ alike. *)

let random_instance rng =
  let n = 2 + Util.Rng.int rng 12 in
  let num_labels = 1 + Util.Rng.int rng 3 in
  let span = 4 + Util.Rng.int rng 10 in
  let integral = Util.Rng.bool rng in
  let posts =
    List.init n (fun id ->
        let value =
          if integral then float_of_int (Util.Rng.int rng span)
          else Util.Rng.float rng (float_of_int span)
        in
        let k = 1 + Util.Rng.int rng (min 3 num_labels) in
        let labels =
          List.init k (fun _ -> Util.Rng.int rng num_labels)
        in
        Mqdp.Post.make ~id ~value ~labels:(Mqdp.Label_set.of_list labels))
  in
  Mqdp.Instance.create posts

exception Discrepancy of string

let check ~seed cond message =
  if not cond then
    raise (Discrepancy (Printf.sprintf "seed %d: %s" seed message))

let one_round seed =
  let rng = Util.Rng.create seed in
  let inst = random_instance rng in
  let l = 0.5 +. Util.Rng.float rng 3.5 in
  let lambda = Mqdp.Coverage.Fixed l in
  let tau = Util.Rng.float rng 6. in
  let optimal = List.length (Mqdp.Brute_force.solve inst lambda) in
  check ~seed
    (List.length (Mqdp.Opt.solve inst lambda) = optimal)
    "OPT disagrees with brute force";
  let s = Mqdp.Instance.max_labels_per_post inst in
  List.iter
    (fun algo ->
      let result = Mqdp.Solver.solve algo inst lambda in
      check ~seed
        (Mqdp.Coverage.is_cover inst lambda result.Mqdp.Solver.cover)
        (Mqdp.Solver.algorithm_name algo ^ " returned a non-cover");
      check ~seed
        (result.Mqdp.Solver.size >= optimal)
        (Mqdp.Solver.algorithm_name algo ^ " beat the optimum"))
    [ Mqdp.Solver.Greedy_sc; Mqdp.Solver.Greedy_sc_linear; Mqdp.Solver.Scan;
      Mqdp.Solver.Scan_plus ];
  check ~seed
    (List.length (Mqdp.Scan.solve inst lambda) <= s * optimal)
    "Scan exceeded its s-approximation bound";
  (* Kernel cross-check: the two GreedySC selection strategies promise
     bit-identical covers; any tie-rule drift between the bucket queue and
     the linear re-scan shows up here. *)
  let g_bucket = Mqdp.Greedy_sc.solve ~selection:`Bucket_queue inst lambda in
  let g_linear = Mqdp.Greedy_sc.solve ~selection:`Linear_scan inst lambda in
  check ~seed
    (List.equal Int.equal g_bucket g_linear)
    "bucket-queue GreedySC diverged from the linear re-scan";
  List.iter
    (fun algo ->
      let result = Mqdp.Solver.solve_stream algo ~tau inst lambda in
      let effective_tau = match algo with Mqdp.Solver.Instant -> 0. | _ -> tau in
      check ~seed
        (Mqdp.Coverage.is_cover inst lambda result.Mqdp.Solver.stream.Mqdp.Stream.cover)
        (Mqdp.Solver.streaming_algorithm_name algo ^ " returned a non-cover");
      check ~seed
        (Mqdp.Stream.check_deadline ~tau:effective_tau inst result.Mqdp.Solver.stream)
        (Mqdp.Solver.streaming_algorithm_name algo ^ " violated its deadline"))
    Mqdp.Solver.all_streaming_algorithms;
  let offline_scan = Mqdp.Scan.solve inst lambda in
  let streaming_scan =
    Mqdp.Stream_scan.solve ~plus:false ~tau:(l +. 0.25) inst lambda
  in
  check ~seed
    (List.equal Int.equal streaming_scan.Mqdp.Stream.cover offline_scan)
    "StreamScan with tau > lambda diverged from offline Scan";
  (* The instant bound of Section 5.1. *)
  let instant =
    List.length (Mqdp.Stream_scan.solve_instant inst lambda).Mqdp.Stream.cover
  in
  check ~seed (instant <= 2 * s * optimal) "instant output exceeded 2s bound";
  (* Telemetry is observation only: the same solve with the registry and a
     live span sink enabled must produce bit-identical covers, through the
     plain solver and through the governed ladder alike. *)
  let with_telemetry f =
    Util.Telemetry.enable ();
    Util.Telemetry.set_sink
      { Util.Telemetry.on_span = (fun ~name:_ ~depth:_ ~start_ns:_ ~dur_ns:_ ~args:_ -> ()) };
    Fun.protect
      ~finally:(fun () ->
        Util.Telemetry.disable ();
        Util.Telemetry.set_sink Util.Telemetry.null_sink)
      f
  in
  List.iter
    (fun algo ->
      let off = (Mqdp.Solver.solve algo inst lambda).Mqdp.Solver.cover in
      let on = with_telemetry (fun () -> (Mqdp.Solver.solve algo inst lambda).Mqdp.Solver.cover) in
      check ~seed
        (List.equal Int.equal on off)
        (Mqdp.Solver.algorithm_name algo ^ " cover changed with telemetry enabled"))
    [ Mqdp.Solver.Greedy_sc; Mqdp.Solver.Greedy_sc_linear; Mqdp.Solver.Scan;
      Mqdp.Solver.Scan_plus ];
  let governed () =
    (Mqdp.Supervisor.solve
       ~budget:(Util.Budget.create ~max_steps:(50 + (seed mod 500)) ())
       inst lambda)
      .Mqdp.Supervisor.cover
  in
  let gov_off = governed () in
  let gov_on = with_telemetry governed in
  check ~seed
    (List.equal Int.equal gov_on gov_off)
    "governed cover changed with telemetry enabled"

(* ---------------- budget mode: the resource governor ---------------- *)

let random_budget rng =
  match Util.Rng.int rng 4 with
  | 0 -> Util.Budget.create ~max_steps:(Util.Rng.int rng 3000) ()
  | 1 -> Util.Budget.create ~deadline:(Util.Rng.float rng 0.002) ()
  | 2 ->
    Util.Budget.create
      ~max_alloc_bytes:(Util.Rng.float rng 300_000.) ()
  | _ ->
    Util.Budget.create ~max_steps:(Util.Rng.int rng 2000)
      ~deadline:(Util.Rng.float rng 0.005) ()

let one_budget_round seed =
  let rng = Util.Rng.create (0xB06E7 + seed) in
  let inst = random_instance rng in
  let l = 0.5 +. Util.Rng.float rng 3.5 in
  let lambda = Mqdp.Coverage.Fixed l in
  let algorithm =
    List.nth Mqdp.Solver.all_algorithms
      (Util.Rng.int rng (List.length Mqdp.Solver.all_algorithms))
  in
  let ladder = Mqdp.Supervisor.ladder_from algorithm in
  let with_optional_pool f =
    (* Every eighth round runs governed solving over a real domain pool so
       worker-side exhaustion and chunk cancellation get fuzzed too. *)
    if seed mod 8 = 0 then Util.Pool.with_pool ~jobs:2 (fun p -> f (Some p))
    else f None
  in
  (* 1. Any answer under any budget is a valid cover, whatever the rung. *)
  let report =
    with_optional_pool (fun pool ->
        Mqdp.Supervisor.solve ?pool ~budget:(random_budget rng) ~ladder inst lambda)
  in
  check ~seed
    (Mqdp.Coverage.is_cover inst lambda report.Mqdp.Supervisor.cover)
    (Printf.sprintf "governed solve (answered by %s) returned a non-cover"
       report.Mqdp.Supervisor.answered_by);
  (* 2. Steps-only budgets are deterministic: same budget, same rung, same
     cover. *)
  let steps = Util.Rng.int rng 4000 in
  let governed () =
    Mqdp.Supervisor.solve
      ~budget:(Util.Budget.create ~max_steps:steps ())
      ~ladder inst lambda
  in
  let r1 = governed () and r2 = governed () in
  check ~seed
    (List.equal Int.equal r1.Mqdp.Supervisor.cover r2.Mqdp.Supervisor.cover
    && String.equal r1.Mqdp.Supervisor.answered_by r2.Mqdp.Supervisor.answered_by)
    "steps-governed degradation is not deterministic";
  (* 3. An unlimited budget reproduces the direct solver call exactly. *)
  let direct = Mqdp.Solver.run algorithm inst lambda in
  let unlimited = Mqdp.Supervisor.solve ~ladder inst lambda in
  check ~seed
    (List.equal Int.equal unlimited.Mqdp.Supervisor.cover direct
    && String.equal unlimited.Mqdp.Supervisor.answered_by
         (Mqdp.Solver.algorithm_name algorithm))
    "unlimited-budget supervisor diverged from the direct solver call";
  (* 4. Solver.compile under a tiny budget either returns a fully usable
     index or raises — and after a raise, nothing is left behind: a fresh
     compile still agrees with the uncompiled path. *)
  let reference = Mqdp.Solver.run Mqdp.Solver.Greedy_sc inst lambda in
  let compiled_cover index =
    (Mqdp.Solver.solve_compiled Mqdp.Solver.Greedy_sc index).Mqdp.Solver.cover
  in
  (match
     Mqdp.Solver.compile
       ~budget:(Util.Budget.create ~max_steps:(Util.Rng.int rng 60) ())
       inst lambda
   with
  | index ->
    check ~seed
      (List.equal Int.equal (compiled_cover index) reference)
      "index compiled under a budget diverged from the uncompiled path"
  | exception Mqdp.Interrupt.Budget_exceeded _ ->
    check ~seed
      (List.equal Int.equal (compiled_cover (Mqdp.Solver.compile inst lambda)) reference)
      "aborted compile left observable state behind");
  (* 5. A pre-cancelled budget aborts before any work, with Cancelled. *)
  let cancelled = Util.Budget.create ~max_steps:max_int () in
  Util.Budget.cancel cancelled;
  match Mqdp.Solver.run ~budget:cancelled Mqdp.Solver.Greedy_sc inst lambda with
  | _ -> check ~seed false "pre-cancelled budget still completed a solve"
  | exception
      Mqdp.Interrupt.Budget_exceeded { reason = Util.Budget.Cancelled; _ } ->
    ()

(* ---------------- fault mode: the hardened frontend ---------------- *)

let policy_of_string = function
  | "drop" -> Some Mqdp.Feed.Drop
  | "clamp" -> Some Mqdp.Feed.Clamp
  | "raise" -> Some Mqdp.Feed.Raise
  | "mixed" -> None  (* drawn per round *)
  | s ->
    Printf.eprintf "unknown fault policy %S (expected drop|clamp|raise|mixed)\n" s;
    exit 2

let random_policy rng =
  match Util.Rng.int rng 3 with
  | 0 -> Mqdp.Feed.Drop
  | 1 -> Mqdp.Feed.Clamp
  | _ -> Mqdp.Feed.Raise

(* A clean, time-ordered stream with unique ids. *)
let clean_stream rng ~n ~num_labels ~span =
  List.init n (fun id ->
      let value = Util.Rng.float rng span in
      let k = 1 + Util.Rng.int rng (min 3 num_labels) in
      let labels = List.init k (fun _ -> Util.Rng.int rng num_labels) in
      Mqdp.Post.make ~id ~value ~labels:(Mqdp.Label_set.of_list labels))
  |> List.sort Mqdp.Post.compare_by_value

(* Occasionally smuggle in a non-finite timestamp (bypassing Post.make the
   way a buggy upstream serializer would) so the non_finite policy runs. *)
let inject_non_finite rng posts =
  List.map
    (fun p ->
      if Util.Rng.float rng 1. < 0.03 then
        let v =
          match Util.Rng.int rng 3 with
          | 0 -> Float.infinity
          | 1 -> Float.neg_infinity
          | _ -> Float.nan
        in
        { p with Mqdp.Post.value = v }
      else p)
    posts

(* Push [posts] through a feed, checkpointing + restoring (through the
   string serialization) at every boundary in [crashes]. Returns the
   delivered posts (as admitted, newest clamps included) and the full
   emission stream. *)
let run_feed ~config ~lambda ~mode ~crashes posts =
  let feed = ref (Mqdp.Feed.create ~config ~lambda mode) in
  let delivered = ref [] in
  let emissions = ref [] in
  let budget_ok = ref true in
  List.iteri
    (fun i post ->
      if List.mem i crashes then feed := Mqdp.Feed.restore (Mqdp.Feed.checkpoint !feed);
      (match Mqdp.Feed.push !feed post with
      | { Mqdp.Feed.admitted; emissions = es } ->
        (match admitted with Some p -> delivered := p :: !delivered | None -> ());
        emissions := List.rev_append es !emissions
      | exception Mqdp.Feed.Rejected _ -> ());
      match config.Mqdp.Feed.overload_budget with
      | Some b ->
        if Mqdp.Online.pending_labels (Mqdp.Feed.engine !feed) > b then budget_ok := false
      | None -> ())
    posts;
  if List.mem (List.length posts) crashes then
    feed := Mqdp.Feed.restore (Mqdp.Feed.checkpoint !feed);
  emissions := List.rev_append (Mqdp.Feed.finish !feed) !emissions;
  (List.rev !delivered, List.rev !emissions, !budget_ok, !feed)

let emission_key e =
  (e.Mqdp.Online.post.Mqdp.Post.id, Int64.bits_of_float e.Mqdp.Online.emit_time)

let one_fault_round ~policy seed =
  let rng = Util.Rng.create (0x5EED + seed) in
  let n = 20 + Util.Rng.int rng 60 in
  let num_labels = 1 + Util.Rng.int rng 6 in
  let span = 20. +. Util.Rng.float rng 60. in
  let lambda = 0.5 +. Util.Rng.float rng 6. in
  let tau = Util.Rng.float rng 4. in
  let mode =
    if Util.Rng.int rng 4 = 0 then Mqdp.Online.Instant
    else Mqdp.Online.Delayed { tau; plus = Util.Rng.bool rng }
  in
  let tau_eff = match mode with Mqdp.Online.Instant -> 0. | Mqdp.Online.Delayed _ -> tau in
  let pick () = match policy with Some p -> p | None -> random_policy rng in
  let config =
    {
      Mqdp.Feed.reorder_window = Util.Rng.int rng 24;
      late = pick ();
      duplicate = pick ();
      non_finite = pick ();
      overload_budget = (if Util.Rng.bool rng then Some (1 + Util.Rng.int rng 4) else None);
    }
  in
  let fault =
    Util.Fault.create
      ~config:
        {
          Util.Fault.drop_p = 0.05;
          duplicate_p = 0.08;
          dup_delay = 5;
          skew_p = 0.15;
          skew_sigma = span /. 10.;
          burst_p = 0.05;
          burst_len = 4;
        }
      ~seed ()
  in
  let hostile =
    clean_stream rng ~n ~num_labels ~span
    |> Util.Fault.corrupt fault
         ~time:(fun p -> p.Mqdp.Post.value)
         ~retime:(fun p v -> { p with Mqdp.Post.value = v })
    |> inject_non_finite rng
  in
  let crashes =
    Util.Fault.crash_points fault ~n:(List.length hostile) ~max_points:4
  in
  let delivered, emissions, budget_ok, _ =
    run_feed ~config ~lambda ~mode ~crashes:[] hostile
  in
  let delivered', emissions', budget_ok', _ =
    run_feed ~config ~lambda ~mode ~crashes hostile
  in
  check ~seed budget_ok "overload budget exceeded (uninterrupted run)";
  check ~seed budget_ok' "overload budget exceeded (crash/restore run)";
  check ~seed
    (List.map emission_key emissions = List.map emission_key emissions')
    "crash/restore emissions diverge from the uninterrupted run";
  check ~seed
    (List.map (fun p -> (p.Mqdp.Post.id, Int64.bits_of_float p.Mqdp.Post.value)) delivered
    = List.map (fun p -> (p.Mqdp.Post.id, Int64.bits_of_float p.Mqdp.Post.value)) delivered')
    "crash/restore admission decisions diverge";
  (* Every delivered post is λ-covered within its deadline: a covering
     emission is itself emitted within τ of its own timestamp, so the
     end-to-end bound is value + τ + λ. *)
  let eps = 1e-9 in
  List.iter
    (fun p ->
      Mqdp.Label_set.iter
        (fun a ->
          let covered =
            List.exists
              (fun e ->
                let q = e.Mqdp.Online.post in
                Mqdp.Label_set.mem a q.Mqdp.Post.labels
                && Float.abs (q.Mqdp.Post.value -. p.Mqdp.Post.value) <= lambda +. eps
                && e.Mqdp.Online.emit_time <= p.Mqdp.Post.value +. tau_eff +. lambda +. eps)
              emissions
          in
          if not covered then
            raise
              (Discrepancy
                 (Printf.sprintf "seed %d: delivered post %d label %d not covered in time"
                    seed p.Mqdp.Post.id a)))
        p.Mqdp.Post.labels)
    delivered

(* ---------------- window mode: the sliding-window geometry ---------------- *)

let one_window_round seed =
  let rng = Util.Rng.create (0xA11CE + seed) in
  let num_labels = 1 + Util.Rng.int rng 5 in
  let span = 10. +. Util.Rng.float rng 40. in
  let lambda =
    if Util.Rng.bool rng then Mqdp.Coverage.Fixed (0.5 +. Util.Rng.float rng 4.)
    else
      Mqdp.Coverage.Per_post_label
        (fun p a -> 0.4 +. (0.3 *. float_of_int ((p.Mqdp.Post.id + a) mod 5)))
  in
  let n = 30 + Util.Rng.int rng 90 in
  let stream = Array.of_list (clean_stream rng ~n ~num_labels ~span) in
  let n = Array.length stream in
  let w = Mqdp.Window_index.create lambda in
  let wsolver = Mqdp.Greedy_sc.window_solver () in
  (* Reference model: the live posts as a plain list, ascending. *)
  let live = ref [] in
  let next = ref 0 in
  let push_batch () =
    let k = 1 + Util.Rng.int rng 6 in
    for _ = 1 to k do
      if !next < n then begin
        let p = stream.(!next) in
        incr next;
        Mqdp.Window_index.push w p;
        live := p :: !live
      end
    done
  in
  let live_posts () = List.rev !live in
  let expire () =
    match live_posts () with
    | [] -> ()
    | posts ->
      if Util.Rng.bool rng then begin
        (* By time: cut at a random live post's value. *)
        let arr = Array.of_list posts in
        let t = arr.(Util.Rng.int rng (Array.length arr)).Mqdp.Post.value in
        Mqdp.Window_index.expire_before w ~time:t;
        live := List.rev (List.filter (fun p -> p.Mqdp.Post.value >= t) posts)
      end
      else begin
        (* By count. *)
        let k = Util.Rng.int rng (List.length posts + 1) in
        Mqdp.Window_index.expire_posts w k;
        live := List.rev (List.filteri (fun i _ -> i >= k) posts)
      end
  in
  let solve_and_check () =
    let posts = live_posts () in
    let slice = Mqdp.Instance.create posts in
    check ~seed
      (Mqdp.Instance.size slice = Mqdp.Window_index.size w)
      "window size diverged from the reference model";
    let index = Mqdp.Pair_index.build slice lambda in
    let reference = Mqdp.Greedy_sc.solve_indexed index in
    check ~seed
      (Mqdp.Coverage.is_cover slice lambda reference)
      "fresh-index greedy returned a non-cover";
    List.iter
      (fun selection ->
        let got = Mqdp.Greedy_sc.solve_window ~selection ~solver:wsolver w in
        check ~seed
          (List.equal Int.equal got reference)
          "windowed cover diverged from the fresh Pair_index")
      [ `Bucket_queue; `Linear_scan ];
    if seed mod 8 = 0 then begin
      let pooled =
        Util.Pool.with_pool ~jobs:4 (fun pool ->
            Mqdp.Greedy_sc.solve ~pool slice lambda)
      in
      check ~seed
        (List.equal Int.equal pooled reference)
        "pooled solve diverged from the windowed cover"
    end
  in
  let roundtrip () =
    let size = Mqdp.Window_index.size w and head = Mqdp.Window_index.expired w in
    let restored = Mqdp.Window_index.import lambda (Mqdp.Window_index.export w) in
    check ~seed
      (Mqdp.Window_index.size restored = size && Mqdp.Window_index.expired restored = head)
      "export/import changed the window shape";
    check ~seed
      (List.equal Int.equal
         (Mqdp.Greedy_sc.solve_window restored)
         (Mqdp.Greedy_sc.solve_window ~solver:wsolver w))
      "restored window solves differently"
  in
  while !next < n do
    match Util.Rng.int rng 4 with
    | 0 | 1 -> push_batch ()
    | 2 -> expire ()
    | _ -> if Util.Rng.bool rng then solve_and_check () else roundtrip ()
  done;
  solve_and_check ();
  roundtrip ()

(* --serve: torture the multi-tenant serving engine against a
   single-threaded oracle. Every round builds a random Serve engine
   (shards, pool jobs, queue capacity, checkpoint cadence, overload
   budget), admits a handful of profiles, and drives a Fault-corrupted
   post stream through the wire protocol — with crash injection firing
   between post applications, whole-shard snapshot/restore restarts
   mid-stream, and verbatim client retries — while an oracle of plain
   per-profile Feeds (no crashes, no restarts) replicates the shard hash
   and queue-capacity accounting. At every sync point the engine's
   REPORTs must match the oracle's emissions bit-for-bit (sequence
   numbers, ids, IEEE-754 emit times), FEED acknowledgments must match
   the oracle's shed model, and the final drain must leave zero
   acknowledged posts unapplied.

   Half the rounds additionally run durable: the engine journals every
   named-session command to a state dir and whole-daemon deaths are
   injected — after execution but before the response is delivered
   (retry must replay the recorded response from the recovered cache),
   mid-journal-append via Util.Fs crash points (torn record truncated,
   retry re-executes exactly once), between the epoch snapshots and the
   manifest commit, and mid-compaction. Every death is followed by the
   daemon's own boot path (sweep temps, manifest epoch + watermark,
   snapshot load, journal replay); the unchanged oracle comparison then
   doubles as the audit that no command ever executed twice. *)

exception Injected_crash

(* The daemon's durable-state discipline, replicated for the simulated
   process deaths: epoch-named shard snapshots committed by one atomic
   manifest write carrying the journal watermark they cover, then journal
   compaction (bin/mqdp_serve.ml has the crash-window analysis). The
   fuzzer drives the exact same file layout so recovery code paths are
   the ones the real daemon runs. *)
let sim_manifest_path dir = Filename.concat dir "manifest"

let sim_snap_path dir i epoch =
  Filename.concat dir (Printf.sprintf "shard-%d.ep%d.snap" i epoch)

let sim_persist ?compact_crash ~dir ~epoch engine =
  let next = !epoch + 1 in
  for i = 0 to Mqdp.Serve.shard_count engine - 1 do
    Util.Fs.atomic_write ~fsync:false ~path:(sim_snap_path dir i next)
      (Mqdp.Serve.shard_snapshot engine i)
  done;
  let covered = Mqdp.Serve.journal_gsn engine in
  Util.Fs.atomic_write ~fsync:false ~path:(sim_manifest_path dir)
    (Mqdp.Serve.manifest ~extra:[ ("epoch", next); ("journal", covered) ] engine);
  (* Raises Util.Fs.Crashed under [compact_crash] — the manifest already
     committed, so recovery must replay the old journal cache-only. *)
  Mqdp.Serve.compact_journal ?crash_after:compact_crash engine;
  let old = !epoch in
  epoch := next;
  for i = 0 to Mqdp.Serve.shard_count engine - 1 do
    Util.Fs.remove_if_exists (sim_snap_path dir i old)
  done

(* A fresh state dir, as the daemon's first boot leaves it. *)
let sim_boot_fresh engine dir =
  Util.Fs.atomic_write ~fsync:false ~path:(sim_manifest_path dir)
    (Mqdp.Serve.manifest ~extra:[ ("epoch", 0); ("journal", 0) ] engine);
  Mqdp.Serve.attach_journal ~fsync:false engine ~dir ~covered:0

(* Write the next epoch's snapshots but die before the manifest commits:
   recovery must ignore the orphans and redo from the old watermark. *)
let sim_persist_torn ~dir ~epoch engine =
  for i = 0 to Mqdp.Serve.shard_count engine - 1 do
    Util.Fs.atomic_write ~fsync:false ~path:(sim_snap_path dir i (!epoch + 1))
      (Mqdp.Serve.shard_snapshot engine i)
  done

(* Boot a fresh engine from the durable state, exactly like the daemon:
   sweep temps, read the manifest's committed epoch + covered watermark,
   load that epoch's snapshots, attach + replay the journal. *)
let sim_reboot ~config ~dir ~epoch engine =
  Mqdp.Serve.shutdown !engine;
  engine := Mqdp.Serve.create config;
  ignore (Util.Fs.sweep_temps dir);
  let m = Mqdp.Serve.parse_manifest (Util.Fs.read (sim_manifest_path dir)) in
  let on_disk = List.assoc "epoch" m and covered = List.assoc "journal" m in
  epoch := on_disk;
  for i = 0 to Mqdp.Serve.shard_count !engine - 1 do
    let p = sim_snap_path dir i on_disk in
    if Sys.file_exists p then Mqdp.Serve.load_shard !engine i (Util.Fs.read p)
  done;
  Mqdp.Serve.attach_journal ~fsync:false !engine ~dir ~covered

type oracle_profile = {
  o_name : string;
  o_sub : Mqdp.Label_set.t;
  o_shard : int;
  o_feed : Mqdp.Feed.t;
  mutable o_seq : int;
  mutable o_pending : Mqdp.Post.t list;  (* newest first *)
  mutable o_unreported : (int * Mqdp.Online.emission) list;  (* newest first *)
}

let one_serve_round seed =
  let rng = Util.Rng.create (0x5E44E + seed) in
  let num_labels = 2 + Util.Rng.int rng 3 in
  let shards = 1 + Util.Rng.int rng 4 in
  let capacity = 4 + Util.Rng.int rng 12 in
  let overload_budget =
    if Util.Rng.int rng 4 = 0 then Some (1 + Util.Rng.int rng 2) else None
  in
  let config =
    {
      Mqdp.Serve.default_config with
      Mqdp.Serve.shards;
      jobs = 1 + Util.Rng.int rng 2;
      queue_capacity = capacity;
      checkpoint_every = Util.Rng.int rng 5;
      (* Quarantine is a divergence from the crash-free oracle by design;
         the restart ceiling is effectively infinite here and quarantine
         gets its own unit tests. *)
      max_restarts = max_int - 1;
      overload_budget;
    }
  in
  (* Half the rounds run durable: journal attached, daemon deaths injected
     at journal-append and compaction boundaries, recovery via the same
     snapshot-manifest-journal discipline the real daemon uses. The other
     half keep the original memory-only engine as a control. *)
  let durable = Util.Rng.bool rng in
  let state_dir =
    if durable then Some (Filename.temp_dir "mqdp_fuzz_serve" ".state") else None
  in
  let epoch = ref 0 in
  let engine = ref (Mqdp.Serve.create config) in
  Option.iter (sim_boot_fresh !engine) state_dir;
  Fun.protect
    ~finally:(fun () ->
      Mqdp.Serve.shutdown !engine;
      if Sys.getenv_opt "MQDP_FUZZ_KEEP" = None then Option.iter Util.Fs.remove_tree state_dir)
  @@ fun () ->
  (* Crash schedule: a small set of application indices at which the chaos
     hook (called from pool workers, hence the atomic) kills the profile
     mid-tick. Recovery is checkpoint restore + journal replay, so any
     schedule must leave the observable stream untouched. Armed only after
     the oracle profiles are admitted (as before the journal existed). *)
  let crash_counter = Atomic.make 0 in
  let crash_points =
    List.init (Util.Rng.int rng 5) (fun _ -> 1 + Util.Rng.int rng 100)
  in
  let chaos () =
    let c = Atomic.fetch_and_add crash_counter 1 in
    if List.mem c crash_points then raise Injected_crash
  in
  let chaos_armed = ref false in
  let reboot () =
    match state_dir with
    | None -> ()
    | Some dir ->
      sim_reboot ~config ~dir ~epoch engine;
      (* attach_journal replayed the redo chaos-free on the fresh engine
         (its hook starts empty); re-arm only for live traffic. *)
      if !chaos_armed then Mqdp.Serve.set_chaos !engine (Some chaos)
  in
  let seq = ref 0 in
  let raw line =
    if durable && Util.Rng.int rng 24 = 0 then
      Mqdp.Serve.set_journal_crash_after !engine (Some (Util.Rng.int rng 12));
    match Mqdp.Serve.exec !engine line with
    | response ->
      if durable && Util.Rng.int rng 16 = 0 then begin
        (* The daemon dies after executing (and journaling) the command but
           before the response reaches the wire. The client retries the
           same line against the rebooted daemon and must be answered from
           the journal-recovered response cache, bit-identically. *)
        reboot ();
        let replayed = Mqdp.Serve.exec !engine line in
        check ~seed
          (List.equal String.equal replayed response)
          (Printf.sprintf
             "retry of %S across a daemon death was not replayed from the \
              recovered cache" line);
        replayed
      end
      else response
    | exception Util.Fs.Crashed _ ->
      (* Death mid-journal-append: the command executed but its record is
         torn, so it was never acknowledged. Reboot truncates the torn
         tail and the retry re-executes exactly once — the oracle
         comparison downstream is the no-double-execution audit. *)
      reboot ();
      Mqdp.Serve.exec !engine line
  in
  let exec fmt =
    Printf.ksprintf
      (fun cmd ->
        incr seq;
        let line = Printf.sprintf "%d %s" !seq cmd in
        (line, raw line))
      fmt
  in
  let expect_ok what (line, response) check_body =
    let prefix = Printf.sprintf "%d OK " !seq in
    match response with
    | [ r ] when String.starts_with ~prefix r ->
      let body = String.sub r (String.length prefix) (String.length r - String.length prefix) in
      check ~seed (check_body body)
        (Printf.sprintf "%s: unexpected body %S for %S" what body line);
      body
    | _ ->
      check ~seed false
        (Printf.sprintf "%s: unexpected response %S for %S" what
           (String.concat " / " response) line);
      ""
  in
  let labels_csv ls = String.concat "," (List.map string_of_int (Mqdp.Label_set.to_list ls)) in
  let feed_config = { Mqdp.Feed.default_config with overload_budget } in
  (* Admit profiles; the oracle mirrors each with a plain Feed. *)
  let nprof = 2 + Util.Rng.int rng 5 in
  let oracle =
    List.init nprof (fun i ->
        let o_name = Printf.sprintf "p%d" i in
        let k = 1 + Util.Rng.int rng (min 3 num_labels) in
        let o_sub =
          Mqdp.Label_set.of_list (List.init k (fun _ -> Util.Rng.int rng num_labels))
        in
        let lambda = float_of_int (1 + Util.Rng.int rng 8) in
        let mode, mode_str =
          match Util.Rng.int rng 3 with
          | 0 -> (Mqdp.Online.Instant, "instant")
          | plus_tag ->
            let tau = Util.Rng.float rng lambda in
            let plus = plus_tag = 2 in
            ( Mqdp.Online.Delayed { tau; plus },
              Printf.sprintf "delayed%s:%.17g" (if plus then "+" else "") tau )
        in
        let nowindow = Util.Rng.bool rng in
        ignore
          (expect_ok "ADD"
             (exec "ADD %s %.17g %s %s%s" o_name lambda mode_str (labels_csv o_sub)
                (if nowindow then " nowindow" else ""))
             (String.equal "added"));
        {
          o_name;
          o_sub;
          o_shard = Mqdp.Serve.shard_of_name ~shards o_name;
          o_feed =
            Mqdp.Feed.create ~config:feed_config ~window:false ~lambda mode;
          o_seq = 0;
          o_pending = [];
          o_unreported = [];
        })
  in
  chaos_armed := true;
  Mqdp.Serve.set_chaos !engine (Some chaos);
  let backlog = Array.make shards 0 in
  let oracle_matches post =
    List.filter
      (fun op -> not (Mqdp.Label_set.disjoint post.Mqdp.Post.labels op.o_sub))
      oracle
  in
  let deliver post =
    let expected_delivered = ref 0 and expected_shed = ref 0 in
    List.iter
      (fun op ->
        if backlog.(op.o_shard) >= capacity then incr expected_shed
        else begin
          backlog.(op.o_shard) <- backlog.(op.o_shard) + 1;
          let projected = Mqdp.Label_set.inter post.Mqdp.Post.labels op.o_sub in
          op.o_pending <-
            Mqdp.Post.make ~id:post.Mqdp.Post.id ~value:post.Mqdp.Post.value
              ~labels:projected
            :: op.o_pending;
          incr expected_delivered
        end)
      (oracle_matches post);
    let sent =
      exec "FEED %d %.17g %s" post.Mqdp.Post.id post.Mqdp.Post.value
        (labels_csv post.Mqdp.Post.labels)
    in
    ignore
      (expect_ok "FEED" sent
         (String.equal
            (Printf.sprintf "delivered=%d shed=%d" !expected_delivered !expected_shed)));
    sent
  in
  let oracle_tick () =
    let applied = ref 0 in
    List.iter
      (fun op ->
        List.iter
          (fun p ->
            incr applied;
            match Mqdp.Feed.push op.o_feed p with
            | outcome ->
              List.iter
                (fun e ->
                  op.o_seq <- op.o_seq + 1;
                  op.o_unreported <- (op.o_seq, e) :: op.o_unreported)
                outcome.Mqdp.Feed.emissions
            | exception Mqdp.Feed.Rejected _ -> ())
          (List.rev op.o_pending);
        op.o_pending <- [])
      oracle;
    Array.fill backlog 0 shards 0;
    !applied
  in
  let compare_report op =
    let _, response = exec "REPORT %s" op.o_name in
    let expected =
      List.rev_map
        (fun (eseq, e) ->
          Printf.sprintf "%d EMIT %d %d %016Lx" !seq eseq
            e.Mqdp.Online.post.Mqdp.Post.id
            (Int64.bits_of_float e.Mqdp.Online.emit_time))
        op.o_unreported
      @ [ Printf.sprintf "%d OK %d" !seq (List.length op.o_unreported) ]
    in
    op.o_unreported <- [];
    check ~seed
      (List.equal String.equal response expected)
      (Printf.sprintf "REPORT %s diverged from the oracle:\n  got      %s\n  expected %s"
         op.o_name
         (String.concat " | " response)
         (String.concat " | " expected))
  in
  let tick_and_compare () =
    let expected = oracle_tick () in
    ignore
      (expect_ok "TICK" (exec "TICK")
         (String.equal (Printf.sprintf "applied=%d backlog=0" expected)));
    List.iter compare_report oracle
  in
  (* The corrupted stream: drops, duplicates, skew, bursts, plus injected
     infinities (the Drop policy consumes them identically on both
     sides). *)
  let n = 20 + Util.Rng.int rng 40 in
  let t = ref 0. in
  let clean =
    List.init n (fun id ->
        t := !t +. Util.Rng.exponential rng ~rate:1.;
        let k = 1 + Util.Rng.int rng (min 3 num_labels) in
        let labels =
          Mqdp.Label_set.of_list (List.init k (fun _ -> Util.Rng.int rng num_labels))
        in
        Mqdp.Post.make ~id ~value:!t ~labels)
  in
  let fault = Util.Fault.create ~seed:(0xFA0C7 + seed) () in
  let stream =
    Util.Fault.corrupt fault
      ~time:(fun p -> p.Mqdp.Post.value)
      ~retime:(fun p v ->
        Mqdp.Post.make ~id:p.Mqdp.Post.id ~value:v ~labels:p.Mqdp.Post.labels)
      clean
    |> List.map (fun p ->
           if Util.Rng.int rng 32 = 0 then
             Mqdp.Post.make ~id:p.Mqdp.Post.id ~value:infinity
               ~labels:p.Mqdp.Post.labels
           else p)
  in
  let last_feed = ref None in
  List.iter
    (fun post ->
      last_feed := Some (deliver post);
      (match (!last_feed, Util.Rng.int rng 6) with
      | Some (line, response), 0 ->
        (* A client retry: the same line verbatim must replay the cached
           response without delivering the post a second time. *)
        check ~seed
          (List.equal String.equal (raw line) response)
          (Printf.sprintf "retried %S did not replay its cached response" line)
      | _ -> ());
      if Util.Rng.int rng 6 = 0 then tick_and_compare ();
      if Util.Rng.int rng 10 = 0 then
        Mqdp.Serve.restart_shard !engine (Util.Rng.int rng shards);
      (match (state_dir, Util.Rng.int rng 8) with
      | Some dir, 0 -> (
        (* A durability point, with the persist discipline itself under
           attack: die between the snapshot writes and the manifest commit
           (recovery ignores the orphan epoch and redoes from the old
           watermark), die mid-compaction (manifest committed, journal
           rewrite torn — recovery replays cache-only), or complete
           cleanly. An armed one-shot journal crash can also fire inside
           the clean path's compaction, so it reboots too. *)
        match Util.Rng.int rng 6 with
        | 0 ->
          sim_persist_torn ~dir ~epoch !engine;
          reboot ()
        | 1 -> (
          try
            sim_persist ~compact_crash:(Util.Rng.int rng 20) ~dir ~epoch
              !engine
          with Util.Fs.Crashed _ -> reboot ())
        | _ -> (
          try sim_persist ~dir ~epoch !engine
          with Util.Fs.Crashed _ -> reboot ()))
      | _ -> ());
      if Util.Rng.int rng 12 = 0 then begin
        let op = List.nth oracle (Util.Rng.int rng nprof) in
        let _, response = exec "QUERY %s" op.o_name in
        match response with
        | [ r ] ->
          check ~seed
            (String.starts_with ~prefix:(Printf.sprintf "%d OK rung=" !seq) r
            || String.starts_with ~prefix:(Printf.sprintf "%d ERR no-window" !seq) r)
            (Printf.sprintf "QUERY %s: unexpected response %S" op.o_name r)
        | _ -> check ~seed false "QUERY returned multiple lines"
      end)
    stream;
  (* Final sync: drain both sides and audit zero acknowledged-post loss. *)
  tick_and_compare ();
  let expected_drained =
    List.iter
      (fun op ->
        List.iter
          (fun e ->
            op.o_seq <- op.o_seq + 1;
            op.o_unreported <- (op.o_seq, e) :: op.o_unreported)
          (Mqdp.Feed.finish op.o_feed))
      oracle;
    nprof
  in
  ignore
    (expect_ok "DRAIN" (exec "DRAIN")
       (String.equal (Printf.sprintf "drained=%d" expected_drained)));
  List.iter compare_report oracle;
  check ~seed (Mqdp.Serve.backlog !engine = 0) "acknowledged posts left unapplied";
  let stats = expect_ok "STATS" (exec "STATS") (String.starts_with ~prefix:"{") in
  check ~seed
    (let needle = "\"backlog\":0" in
     let rec find i =
       i + String.length needle <= String.length stats
       && (String.sub stats i (String.length needle) = needle || find (i + 1))
     in
     find 0)
    "STATS does not report an empty backlog after drain";
  (* The idempotency window is finite: a sequence number far below the
     watermark whose cache slot was reused must be refused, not rerun. *)
  if !seq > Mqdp.Serve.default_config.Mqdp.Serve.seq_cache + 1 then
    check ~seed
      (match raw "1 PING" with
      | [ r ] -> String.starts_with ~prefix:"1 ERR stale-seq" r
      | _ -> false)
      "an evicted stale sequence number was not refused"

(* --transport: the concurrent hardened transport, differentially. Every
   round drives 8 concurrent simulated clients — each with its own named
   session, profiles, and disjoint label universe — through per-connection
   Mqdp.Transport state machines under a deterministic Fault.Net chaos
   schedule: requests arrive re-chunked down to single bytes with
   scheduling delays interleaving the clients, connections reset at
   arbitrary byte boundaries (client reconnects, re-HELLOs, retries the
   same line verbatim), responses are eaten by resets (retry must replay
   the cached response, never re-execute), and mid-round the engine
   drain/snapshot/restarts with every session lost. Two hostile clients
   run alongside: a slowloris trickling bytes without ever completing a
   request (must be condemned by the idle deadline) and an oversized-line
   client (must be condemned by the framing cap) — neither may perturb
   anyone else. The oracle is a clean sequential run of the same scripts
   against a fresh engine with no transport at all: per-client transcripts
   must match bit-for-bit (TICK/QUERY/REPORT bodies masked — they are the
   only interleaving-dependent responses) and each profile's concatenated
   EMIT stream — sequence numbers, post ids, IEEE-754 emit times — must be
   identical, which also proves zero acknowledged-post loss across the
   resets and the restart.

   Half the rounds run durable: every named session journals to a state
   dir, the engine persists at each CHECKPOINT/DRAIN it executes, the
   graceful restart goes through the daemon's real persist + boot path
   (sessions survive, HELLO greetings must report the recovered seq=
   watermark), and one hard kill -9 lands between a command's execution
   and its response delivery — every client retries its in-flight line
   verbatim against the rebooted engine, and the bit-identical-transcript
   oracle proves recovered caches replayed instead of re-executing. *)

let transport_tokens line =
  String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")

let response_is_final line =
  match transport_tokens line with
  | _ :: ("OK" | "ERR") :: _ -> true
  | _ -> false

(* Mask the interleaving-dependent response bodies, folding REPORT's EMIT
   payloads (sans the request's own sequence number) into the per-profile
   stream first — REPORT batching depends on when other clients ticked,
   but the concatenated stream cannot. *)
let transport_mask ~streams line response =
  match transport_tokens line with
  | _ :: "REPORT" :: name :: _ ->
    List.iter
      (fun r ->
        match transport_tokens r with
        | _ :: "EMIT" :: payload ->
          let prev = try Hashtbl.find streams name with Not_found -> [] in
          Hashtbl.replace streams name (String.concat " " payload :: prev)
        | _ -> ())
      response;
    [ "<masked>" ]
  | _ :: ("TICK" | "QUERY") :: _ -> [ "<masked>" ]
  | _ -> response

type transport_client = {
  tc_id : string;  (* HELLO identity: the named session *)
  tc_script : string array;  (* rendered once; retried verbatim *)
  mutable tc_k : int;  (* next command index *)
  mutable tc_transcript : (string * string list) list;  (* reverse order *)
  mutable tc_conn : Mqdp.Transport.t option;
  mutable tc_session : Mqdp.Serve.session option;
  mutable tc_sending : Util.Fault.Net.action list;
  mutable tc_reset_after : bool;  (* the plan ends in a connection reset *)
  mutable tc_backoff : int;  (* scheduler turns left to sleep *)
  mutable tc_attempts : int;  (* attempts on the current command *)
}

let one_transport_round seed =
  let rng = Util.Rng.create (0x7A45B + seed) in
  let fault = Util.Fault.create ~seed:(0xC4A05 + seed) () in
  let net_cfg =
    {
      Util.Fault.Net.max_chunk = 1 + Util.Rng.int rng 16;
      delay_p = 0.15;
      reset_p = 0.08;
    }
  in
  (* The idle deadline re-arms only on completed requests (the slowloris
     defense), so it must exceed the worst-case single-command delivery:
     with 1-byte chunks and delays, a ~60-byte line can take ~80 turns. *)
  let tconfig =
    {
      Mqdp.Transport.max_line = 512;
      max_pending_out = 1 lsl 16;
      idle_timeout = Some 250.;
    }
  in
  let nclients = 8 in
  let config =
    {
      Mqdp.Serve.default_config with
      Mqdp.Serve.shards = 1 + Util.Rng.int rng 4;
      jobs = 1 + Util.Rng.int rng 2;
      (* Shedding depends on the global backlog, which depends on the
         interleaving; a huge queue keeps FEED responses (delivered=n
         shed=0) a pure function of the sending client's own profiles. *)
      queue_capacity = 1 lsl 20;
      checkpoint_every = Util.Rng.int rng 5;
    }
  in
  (* Per-client scripts over disjoint label universes (labels 4i..4i+3),
     so every per-profile observable is independent of the other clients
     and any interleaving must produce the oracle's answers. *)
  let scripts =
    Array.init nclients (fun i ->
        let base = 4 * i in
        let nprof = 1 + Util.Rng.int rng 2 in
        let profiles = Array.init nprof (fun j -> Printf.sprintf "c%dp%d" i j) in
        let labels_csv () =
          let k = 1 + Util.Rng.int rng 3 in
          List.init k (fun _ -> base + Util.Rng.int rng 4)
          |> List.sort_uniq Int.compare
          |> List.map string_of_int |> String.concat ","
        in
        let cmds = ref [] in
        Array.iteri
          (fun j name ->
            let lambda = float_of_int (1 + Util.Rng.int rng 8) in
            let mode =
              match Util.Rng.int rng 3 with
              | 0 -> "instant"
              | plus ->
                Printf.sprintf "delayed%s:%.17g"
                  (if plus = 2 then "+" else "")
                  (Util.Rng.float rng lambda)
            in
            let nowindow = j > 0 && Util.Rng.bool rng in
            cmds :=
              Printf.sprintf "ADD %s %.17g %s %s%s" name lambda mode (labels_csv ())
                (if nowindow then " nowindow" else "")
              :: !cmds)
          profiles;
        let t = ref 0. in
        for n = 0 to 9 + Util.Rng.int rng 15 do
          t := !t +. Util.Rng.exponential rng ~rate:1.;
          cmds :=
            Printf.sprintf "FEED %d %.17g %s" ((i * 100000) + n) !t (labels_csv ())
            :: !cmds;
          if Util.Rng.int rng 4 = 0 then cmds := "TICK" :: !cmds;
          if Util.Rng.int rng 5 = 0 then
            cmds :=
              Printf.sprintf "REPORT %s" profiles.(Util.Rng.int rng nprof) :: !cmds;
          if Util.Rng.int rng 8 = 0 then cmds := "PING" :: !cmds;
          if Util.Rng.int rng 8 = 0 then
            cmds :=
              Printf.sprintf "QUERY %s" profiles.(Util.Rng.int rng nprof) :: !cmds;
          if Util.Rng.int rng 10 = 0 then
            cmds :=
              Printf.sprintf "CHECKPOINT %s" profiles.(Util.Rng.int rng nprof)
              :: !cmds
        done;
        cmds := "TICK" :: !cmds;
        Array.iter
          (fun name ->
            cmds := Printf.sprintf "REPORT %s" name :: Printf.sprintf "DRAIN %s" name :: !cmds)
          profiles;
        let bare = List.rev !cmds in
        Array.of_list (List.mapi (fun k cmd -> Printf.sprintf "%d %s" (k + 1) cmd) bare))
  in
  let engine = ref (Mqdp.Serve.create config) in
  let shutdown_engine () = Mqdp.Serve.shutdown !engine in
  (* Half the rounds run durable: sessions journal to a state dir, the
     graceful mid-round restart goes through the daemon's real persist +
     boot path, and one extra hard kill -9 lands between a command's
     execution and its response delivery. *)
  let durable = Util.Rng.bool rng in
  let state_dir =
    if durable then Some (Filename.temp_dir "mqdp_fuzz_transport" ".state")
    else None
  in
  let epoch = ref 0 in
  Option.iter (sim_boot_fresh !engine) state_dir;
  Fun.protect
    ~finally:(fun () ->
      shutdown_engine ();
      if Sys.getenv_opt "MQDP_FUZZ_KEEP" = None then Option.iter Util.Fs.remove_tree state_dir)
  @@ fun () ->
  let clients =
    Array.init nclients (fun i ->
        {
          tc_id = Printf.sprintf "c%d" i;
          tc_script = scripts.(i);
          tc_k = 0;
          tc_transcript = [];
          tc_conn = None;
          tc_session = None;
          tc_sending = [];
          tc_reset_after = false;
          tc_backoff = 0;
          tc_attempts = 0;
        })
  in
  let streams = Hashtbl.create 32 in
  let turn = ref 0 in
  let now () = float_of_int !turn in
  (* Drive a connection's state machine exactly the way the event loop
     does: execute every framed request, queue its response. *)
  let pump tr session =
    let rec go () =
      match Mqdp.Transport.next tr ~now:(now ()) with
      | Mqdp.Transport.Request line ->
        (match Mqdp.Transport.parse_hello line with
        | Mqdp.Transport.Hello_empty ->
          Mqdp.Transport.respond tr [ "0 ERR parse empty client id" ]
        | Mqdp.Transport.Hello id ->
          (* Same greeting the real server sends: the session's recovered
             watermark rides along so reconnecting clients resume their
             sequence space above everything already executed. *)
          let s = Mqdp.Serve.session !engine ~id in
          Mqdp.Transport.respond tr
            [ Mqdp.Transport.hello_greeting ~id ~seq:(Mqdp.Serve.session_seq s) ]
        | Mqdp.Transport.Not_hello -> (
          match session with
          | Some s ->
            Mqdp.Transport.respond tr (Mqdp.Serve.exec_on !engine s line);
            (* The daemon persists at every durability point; the durable
               rounds replicate that discipline (and its compaction). *)
            if Mqdp.Serve.is_durability_point_line line then
              Option.iter
                (fun dir -> sim_persist ~dir ~epoch !engine)
                state_dir
          | None -> check ~seed false "request before HELLO in the simulator"));
        go ()
      | Mqdp.Transport.Wait | Mqdp.Transport.Close _ -> ()
    in
    go ()
  in
  let take_output tr =
    match Mqdp.Transport.output tr with
    | None -> ""
    | Some (store, pos, len) ->
      let s = Bytes.sub_string store pos len in
      Mqdp.Transport.wrote tr len;
      s
  in
  let rec start_send c =
    let data = c.tc_script.(c.tc_k) ^ "\n" in
    let actions, reset = Util.Fault.Net.plan fault ~config:net_cfg data in
    c.tc_sending <- actions;
    c.tc_reset_after <- reset;
    (* A reset at byte 0: nothing was delivered; the connection just
       died. *)
    if actions = [] && reset then kill_and_retry c
  and kill_and_retry c =
    if Sys.getenv_opt "MQDP_FUZZ_DEBUG" <> None then
      Printf.eprintf "[turn %d] %s retry #%d on %S\n%!" !turn c.tc_id
        (c.tc_attempts + 1) c.tc_script.(c.tc_k);
    c.tc_conn <- None;
    c.tc_session <- None;
    c.tc_sending <- [];
    c.tc_attempts <- c.tc_attempts + 1;
    c.tc_backoff <- 1 + min c.tc_attempts 6;
    check ~seed (c.tc_attempts < 200)
      (Printf.sprintf "client %s starved retrying %S" c.tc_id
         c.tc_script.(c.tc_k))
  in
  let deliver_response c tr ~chaos =
    let out = take_output tr in
    let condemned =
      match Mqdp.Transport.next tr ~now:(now ()) with
      | Mqdp.Transport.Close _ -> true
      | Mqdp.Transport.Request _ | Mqdp.Transport.Wait -> false
    in
    let lines =
      if out = "" then []
      else begin
        check ~seed
          (out.[String.length out - 1] = '\n')
          "transport output did not end at a line boundary";
        String.split_on_char '\n' (String.sub out 0 (String.length out - 1))
      end
    in
    match lines with
    | [] -> kill_and_retry c
    | first :: _ when String.starts_with ~prefix:"0 ERR" first ->
      (* Transport-level rejection: the request never executed. *)
      kill_and_retry c
    | _ ->
      check ~seed
        (response_is_final (List.nth lines (List.length lines - 1)))
        "response did not terminate with <seq> OK|ERR";
      let eaten =
        chaos && snd (Util.Fault.Net.plan fault ~config:net_cfg out)
      in
      if eaten then kill_and_retry c
      else begin
        let line = c.tc_script.(c.tc_k) in
        c.tc_transcript <- (line, transport_mask ~streams line lines) :: c.tc_transcript;
        c.tc_k <- c.tc_k + 1;
        c.tc_attempts <- 0;
        if condemned then kill_and_retry c |> ignore
      end
  in
  let client_done c = c.tc_k >= Array.length c.tc_script in
  (* kill -9, durable rounds only: no quiesce, no drain. Every connection
     dies on the spot — clients mid-script retry their current command
     verbatim — and the engine reboots through the daemon's boot path, so
     recovered sessions must answer already-executed retries from the
     journal cache instead of re-executing them. *)
  let kill_pending = ref false in
  let hard_kill () =
    Array.iter
      (fun c ->
        match c.tc_conn with
        | None -> ()
        | Some _ ->
          if client_done c then begin
            c.tc_conn <- None;
            c.tc_session <- None
          end
          else kill_and_retry c)
      clients;
    match state_dir with
    | Some dir -> sim_reboot ~config ~dir ~epoch engine
    | None -> assert false
  in
  (* One scheduler turn for one client. [quiesce] suppresses new commands
     (the pre-drain barrier); in-flight ones still run to completion. *)
  let step_client ~quiesce c =
    if not (client_done c) then
      if c.tc_backoff > 0 then c.tc_backoff <- c.tc_backoff - 1
      else
        match c.tc_conn with
        | None ->
          if not quiesce || c.tc_attempts > 0 then begin
            let tr = Mqdp.Transport.create ~config:tconfig ~now:(now ()) () in
            (* Bind the session first to know the watermark the greeting
               must carry — 0 on a fresh engine, the journal-recovered
               last_seq after a durable reboot. *)
            let session = Mqdp.Serve.session !engine ~id:c.tc_id in
            let expected =
              Mqdp.Transport.hello_greeting ~id:c.tc_id
                ~seq:(Mqdp.Serve.session_seq session)
              ^ "\n"
            in
            Mqdp.Transport.feed_string tr ("HELLO " ^ c.tc_id ^ "\n");
            pump tr None;
            let greeting = take_output tr in
            check ~seed (greeting = expected)
              (Printf.sprintf "unexpected greeting %S (want %S)" greeting
                 expected);
            c.tc_conn <- Some tr;
            c.tc_session <- Some session;
            start_send c
          end
        | Some tr -> (
          match c.tc_sending with
          | Util.Fault.Net.Delay :: rest -> c.tc_sending <- rest
          | Util.Fault.Net.Chunk s :: rest ->
            Mqdp.Transport.feed_string tr s;
            pump tr c.tc_session;
            c.tc_sending <- rest;
            if rest = [] then
              if !kill_pending then begin
                (* The daemon dies right here: the command just executed
                   (and journaled) but its response never leaves the
                   transport buffer. *)
                kill_pending := false;
                ignore (take_output tr);
                hard_kill ()
              end
              else if c.tc_reset_after then kill_and_retry c
              else deliver_response c tr ~chaos:true
          | [] ->
            (* Between commands on a live connection. *)
            pump tr c.tc_session;
            if not quiesce then start_send c)
  in
  (* Hostile client 1: slowloris. One junk byte per turn, never a
     newline — the idle deadline must condemn it. *)
  let sl = Mqdp.Transport.create ~config:tconfig ~now:0. () in
  let sl_closed = ref None in
  let step_slowloris () =
    if !sl_closed = None then begin
      Mqdp.Transport.feed_string sl "x";
      match Mqdp.Transport.next sl ~now:(now ()) with
      | Mqdp.Transport.Close r -> sl_closed := Some r
      | Mqdp.Transport.Wait -> ()
      | Mqdp.Transport.Request _ ->
        check ~seed false "slowloris bytes framed a request"
    end
  in
  (* Hostile client 2: an unterminated line far beyond the framing cap. *)
  let ov = Mqdp.Transport.create ~config:tconfig ~now:0. () in
  let ov_closed = ref None in
  let step_oversizer () =
    if !ov_closed = None then begin
      Mqdp.Transport.feed_string ov (String.make 64 'A');
      match Mqdp.Transport.next ov ~now:(now ()) with
      | Mqdp.Transport.Close r -> ov_closed := Some r
      | Mqdp.Transport.Wait -> ()
      | Mqdp.Transport.Request _ ->
        check ~seed false "oversized bytes framed a request"
    end
  in
  (* Mid-round SIGTERM: quiesce in-flight commands, drain surviving
     connections, snapshot every shard, boot a fresh engine from the
     snapshots, reconnect everyone. Memory-only rounds lose every session
     (clients restart their sequence space against fresh watermarks);
     durable rounds persist + reboot through the daemon's real paths and
     sessions survive. *)
  let drain_at =
    if Util.Rng.int rng 2 = 0 then Some (20 + Util.Rng.int rng 200) else None
  in
  let kill_at = if durable then Some (20 + Util.Rng.int rng 200) else None in
  let killed = ref false in
  let restart_engine () =
    Array.iter
      (fun c ->
        match c.tc_conn with
        | Some tr ->
          Mqdp.Transport.begin_drain tr;
          pump tr c.tc_session;
          check ~seed
            (match Mqdp.Transport.next tr ~now:(now ()) with
            (* Idle_timeout: the connection was condemned while the
               quiesce barrier waited on a slower client — still a clean
               close with nothing framed left behind. *)
            | Mqdp.Transport.Close (Mqdp.Transport.Drained | Mqdp.Transport.Idle_timeout)
              ->
              true
            | _ -> false)
            "an idle connection did not drain to Close Drained";
          c.tc_conn <- None;
          c.tc_session <- None
        | None -> ())
      clients;
    match state_dir with
    | Some dir ->
      sim_persist ~dir ~epoch !engine;
      sim_reboot ~config ~dir ~epoch engine
    | None ->
      let snaps =
        List.init (Mqdp.Serve.shard_count !engine)
          (Mqdp.Serve.shard_snapshot !engine)
      in
      shutdown_engine ();
      engine := Mqdp.Serve.create config;
      List.iteri (fun i s -> Mqdp.Serve.load_shard !engine i s) snaps
  in
  let draining = ref false in
  let drained = ref false in
  let all_done () = Array.for_all client_done clients in
  let idle_or_done c =
    client_done c || (c.tc_sending = [] && c.tc_attempts = 0 && c.tc_backoff = 0)
  in
  while
    (not (all_done ()))
    || !sl_closed = None
    || !ov_closed = None
  do
    incr turn;
    check ~seed (!turn < 500_000) "the simulated round did not terminate";
    (match drain_at with
    | Some at when (not !drained) && !turn >= at -> draining := true
    | _ -> ());
    (match kill_at with
    | Some at when (not !killed) && (not !draining) && !turn >= at ->
      (* Arm the kill: it fires at the next completed request, between
         execution and response delivery. *)
      killed := true;
      kill_pending := true
    | _ -> ());
    if !draining && Array.for_all idle_or_done clients then begin
      restart_engine ();
      draining := false;
      drained := true
    end;
    Array.iter (step_client ~quiesce:!draining) clients;
    step_slowloris ();
    step_oversizer ()
  done;
  check ~seed
    (!sl_closed = Some Mqdp.Transport.Idle_timeout)
    "the slowloris was not condemned by the idle deadline";
  check ~seed
    (String.starts_with ~prefix:"0 ERR idle-timeout" (take_output sl))
    "the slowloris got no transport-level idle-timeout notice";
  check ~seed
    (!ov_closed = Some Mqdp.Transport.Line_too_long)
    "the oversized line was not condemned by the framing cap";
  check ~seed
    (String.starts_with ~prefix:"0 ERR line-too-long" (take_output ov))
    "the oversized line got no transport-level notice";
  check ~seed (Mqdp.Serve.backlog !engine = 0)
    "acknowledged posts left unapplied after the chaos run";
  (* The oracle: the same scripts, sequentially, no transport, no chaos. *)
  let clean = Mqdp.Serve.create config in
  Fun.protect ~finally:(fun () -> Mqdp.Serve.shutdown clean) @@ fun () ->
  let clean_streams = Hashtbl.create 32 in
  Array.iteri
    (fun i script ->
      let session = Mqdp.Serve.session clean ~id:(Printf.sprintf "c%d" i) in
      let transcript =
        Array.to_list script
        |> List.map (fun line ->
               let response = Mqdp.Serve.exec_on clean session line in
               (line, transport_mask ~streams:clean_streams line response))
      in
      let got = List.rev clients.(i).tc_transcript in
      List.iteri
        (fun k ((line, masked) : string * string list) ->
          let exp_line, exp_masked = List.nth transcript k in
          check ~seed (String.equal line exp_line) "transcript lines diverged";
          check ~seed
            (List.equal String.equal masked exp_masked)
            (Printf.sprintf
               "client %d diverged from the sequential oracle on %S:\n\
               \  got      %s\n  expected %s" i line
               (String.concat " | " masked)
               (String.concat " | " exp_masked)))
        got;
      check ~seed
        (List.length got = List.length transcript)
        (Printf.sprintf "client %d transcript length %d, oracle %d" i
           (List.length got) (List.length transcript)))
    scripts;
  check ~seed (Mqdp.Serve.backlog clean = 0) "oracle backlog nonzero";
  Hashtbl.iter
    (fun name stream ->
      let chaos_stream = try Hashtbl.find streams name with Not_found -> [] in
      check ~seed
        (List.equal String.equal stream chaos_stream)
        (Printf.sprintf
           "profile %s emission stream diverged:\n  chaos %s\n  clean %s" name
           (String.concat " | " (List.rev chaos_stream))
           (String.concat " | " (List.rev stream))))
    clean_streams

let fuzz_loop ~seconds ~seed0 ~what round =
  let start = Unix.gettimeofday () in
  let rounds = ref 0 and seed = ref seed0 in
  try
    while Unix.gettimeofday () -. start < seconds do
      round !seed;
      incr rounds;
      incr seed
    done;
    Printf.printf "fuzz[%s]: %d rounds clean in %.1fs (seeds %d..%d)\n" what !rounds
      seconds seed0 (!seed - 1)
  with
  | Discrepancy message ->
    Printf.eprintf "fuzz[%s]: DISCREPANCY after %d rounds — %s\n" what !rounds message;
    exit 1
  | e ->
    Printf.eprintf "fuzz[%s]: CRASH at seed %d — %s\n" what !seed (Printexc.to_string e);
    exit 1

type mode =
  | Diff
  | Budget
  | Window
  | Serve
  | Transport
  | Fault of string * Mqdp.Feed.policy option

let () =
  let mode, rest =
    match Array.to_list Sys.argv with
    | _ :: "--fault" :: p :: rest -> (Fault (p, policy_of_string p), rest)
    | _ :: "--budget" :: rest -> (Budget, rest)
    | _ :: "--window" :: rest -> (Window, rest)
    | _ :: "--serve" :: rest -> (Serve, rest)
    | _ :: "--transport" :: rest -> (Transport, rest)
    | _ :: rest -> (Diff, rest)
    | [] -> (Diff, [])
  in
  let seconds = match rest with s :: _ -> float_of_string s | [] -> 10. in
  let seed0 = match rest with _ :: s :: _ -> int_of_string s | _ -> 1 in
  match mode with
  | Diff -> fuzz_loop ~seconds ~seed0 ~what:"diff" one_round
  | Budget -> fuzz_loop ~seconds ~seed0 ~what:"budget" one_budget_round
  | Window -> fuzz_loop ~seconds ~seed0 ~what:"window" one_window_round
  | Serve -> fuzz_loop ~seconds ~seed0 ~what:"serve" one_serve_round
  | Transport -> fuzz_loop ~seconds ~seed0 ~what:"transport" one_transport_round
  | Fault (name, policy) ->
    fuzz_loop ~seconds ~seed0 ~what:("fault:" ^ name) (one_fault_round ~policy)
