(* The metrics this benchmark reports, with their units and the
   direction that is better; end-to-end metrics also carry their
   regression bound. BENCHMARK.json at the repository root lists the same
   metrics; [check] compares the two so they cannot drift apart. *)

type e2e = { name : string; unit_ : string; better : Verdict.direction; bound : float }

let e2e =
  let m name unit_ better bound = { name; unit_; better; bound } in
  Verdict.
    [
      m "setup_s" "s" Lower 0.25;
      m "server_rss_mb" "MiB" Lower 0.1;
      m "alloc_kb_per_req" "KiB" Lower 0.1;
    ]

(* The loopback timings. On a shared host the daemon's speed swings
   between regimes by up to 40%, so none of them repeats run to run well
   enough to carry a regression bound: every run prints them, and the
   traced run reports them first among the per-layer metrics. *)
let loopback =
  let lo name unit_ = (name, unit_, Verdict.Lower) and hi name unit_ = (name, unit_, Verdict.Higher) in
  [
    hi "throughput_rps" "req/s";
    lo "feed_p50_ms" "ms";
    lo "tick_p50_ms" "ms";
    lo "server_cpu_us_per_req" "us";
    lo "feed_p99_ms" "ms";
    lo "tick_p90_ms" "ms";
    lo "read_p50_ms" "ms";
    lo "read_p90_ms" "ms";
  ]

(* Per-layer metrics of the traced run, with the direction an
   optimisation should move them. Times are reported only for layers
   every workload exercises; a layer only some workloads reach (window,
   solve, journal, QUERY, CHECKPOINT) reports sizes, ratios and its share
   of the in-process time, which are 0 where it does not run. *)
let per_layer =
  let lo name unit_ = (name, unit_, Verdict.Lower) and hi name unit_ = (name, unit_, Verdict.Higher) in
  loopback
  @ [
    lo "machine.steal_pct" "%";
    lo "loadgen.late_p99_ms" "ms";
    hi "loadgen.drift_ratio" "ratio";
    lo "net.remainder_us_per_req" "us";
    lo "transport.frame_ns_per_req" "ns";
    lo "transport.output_ns_per_req" "ns";
    lo "transport.alloc_b_per_req" "B";
    lo "serve.FEED.p50_us" "us";
    lo "serve.FEED.p99_us" "us";
    lo "serve.FEED.busy_ms" "ms";
    lo "serve.TICK.p50_us" "us";
    lo "serve.TICK.p90_us" "us";
    lo "serve.TICK.busy_ms" "ms";
    lo "serve.REPORT.p50_us" "us";
    lo "serve.REPORT.p90_us" "us";
    lo "serve.REPORT.busy_ms" "ms";
    lo "serve.QUERY.busy_pct" "%";
    lo "serve.CHECKPOINT.busy_pct" "%";
    lo "serve.self_busy_ms" "ms";
    hi "serve.sansio_rps" "req/s";
    lo "journal.appends" "count";
    lo "journal.bytes_per_append" "B";
    lo "journal.busy_pct" "%";
    lo "journal.rewrite_share_pct" "%";
    lo "shard.offer_ns" "ns";
    lo "shard.tick_p50_ms" "ms";
    lo "shard.tick_p90_ms" "ms";
    lo "shard.snapshot_ms" "ms";
    lo "shard.snapshot_kb" "KiB";
    lo "shard.restore_ms" "ms";
    lo "shard.backlog_max" "count";
    lo "profile.offer_ns" "ns";
    lo "profile.process_ns_per_post" "ns";
    lo "profile.report_ns_per_emission" "ns";
    lo "profile.checkpoint_us" "us";
    lo "profile.checkpoints" "count";
    lo "feed.push_ns" "ns";
    lo "feed.checkpoint_kb" "KiB";
    lo "online.push_ns" "ns";
    lo "online.emit_ratio" "ratio";
    lo "online.pending_labels_max" "count";
    lo "window_index.busy_pct" "%";
    lo "window_index.live_posts_mean" "count";
    lo "window_index.live_pairs_mean" "count";
    lo "supervisor.busy_pct" "%";
    lo "supervisor.cover_size_mean" "count";
    hi "supervisor.greedy_answer_ratio" "ratio";
    lo "solver.compile_share" "ratio";
    lo "trace.overhead_pct" "%";
  ]

let direction_string = function Verdict.Lower -> "lower" | Verdict.Higher -> "higher"

(* Disagreements between BENCHMARK.json and the lists above, or between
   its run_seconds and the run length the benchmark is built for. *)
let check ~run_seconds json =
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.member "run_seconds" json with
  | Some (Json.Num s) when Float.equal s (float_of_int run_seconds) -> ()
  | _ -> say "run_seconds is not %d" run_seconds);
  let listed key =
    match Json.member key json with
    | Some (Json.Arr items) ->
      List.map
        (fun item ->
          ( Json.to_str (Json.field "name" item),
            Json.to_str (Json.field "unit" item),
            item ))
        items
    | _ ->
      say "BENCHMARK.json has no %s list" key;
      []
  in
  let e = listed "end_to_end" in
  if List.length e <> List.length e2e then say "end_to_end lists %d metrics, expected %d" (List.length e) (List.length e2e);
  List.iter
    (fun m ->
      match List.find_opt (fun (n, _, _) -> String.equal n m.name) e with
      | None -> say "end_to_end lacks %s" m.name
      | Some (_, u, item) ->
        if not (String.equal u m.unit_) then say "%s: unit %s, expected %s" m.name u m.unit_;
        (match Json.member "better" item with
        | Some (Json.Str b) when String.equal b (direction_string m.better) -> ()
        | _ -> say "%s: better is not %s" m.name (direction_string m.better));
        match Json.member "bound" item with
        | Some (Json.Num b) when Float.equal b m.bound -> ()
        | _ -> say "%s: bound is not %g" m.name m.bound)
    e2e;
  let l = listed "per_layer" in
  if List.length l <> List.length per_layer then
    say "per_layer lists %d metrics, expected %d" (List.length l) (List.length per_layer);
  List.iter
    (fun (name, unit_, better) ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) l with
      | None -> say "per_layer lacks %s" name
      | Some (_, u, item) ->
        if not (String.equal u unit_) then say "%s: unit %s, expected %s" name u unit_;
        match Json.member "better" item with
        | Some (Json.Str b) when String.equal b (direction_string better) -> ()
        | _ -> say "%s: better is not %s" name (direction_string better))
    per_layer;
  List.rev !problems
