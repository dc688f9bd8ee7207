(* Observability experiment: per-algorithm latency quantiles from the new
   registry histograms, a span/counter report for a governed solve, and a
   hard guard on the cost of disabled telemetry.

   The overhead guard is the load-bearing part: every solver hot loop now
   carries counter bumps, so a regression that makes the disabled path
   allocate or lock would tax every solve in the repo. The guard times a
   large batch of disabled [Telemetry.incr] calls and fails the experiment
   (exit 1, so CI sees it) when the per-op cost exceeds a generous bound. *)

let workload () =
  let config =
    Workload.Direct_gen.overlap_config
      ~base:
        { (Workload.Direct_gen.default_config ~num_labels:5 ~seed:42) with
          duration = 600.;
          rate_per_min = 30. }
      ~overlap:1.25
  in
  Workload.Direct_gen.instance config

let lambda = Mqdp.Coverage.Fixed 30.

let latency_table inst =
  let algorithms =
    [ Mqdp.Solver.Greedy_sc; Mqdp.Solver.Scan; Mqdp.Solver.Scan_plus ]
  in
  let runs = 40 in
  let rows =
    List.map
      (fun algo ->
        let index = Mqdp.Solver.compile inst lambda in
        let p50, p95, p99 =
          Harness.latency_quantiles ~runs (fun () ->
              ignore (Mqdp.Solver.solve_compiled algo index))
        in
        [ Mqdp.Solver.algorithm_name algo; string_of_int runs;
          Harness.us p50; Harness.us p95; Harness.us p99 ])
      algorithms
  in
  Harness.table [ "algorithm"; "runs"; "p50 us"; "p95 us"; "p99 us" ] rows

(* Governed solve with a counting sink: how many spans of each name fire,
   and what the registry counters say afterwards. *)
let span_report inst =
  let seen : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let sink =
    {
      Util.Telemetry.on_span =
        (fun ~name ~depth:_ ~start_ns:_ ~dur_ns:_ ~args:_ ->
          match Hashtbl.find_opt seen name with
          | Some r -> incr r
          | None -> Hashtbl.add seen name (ref 1));
    }
  in
  Util.Telemetry.reset ();
  Util.Telemetry.set_sink sink;
  Util.Telemetry.enable ();
  let report =
    Fun.protect
      ~finally:(fun () ->
        Util.Telemetry.disable ();
        Util.Telemetry.set_sink Util.Telemetry.null_sink)
      (fun () ->
        Mqdp.Supervisor.solve
          ~budget:(Util.Budget.create ~max_steps:500_000 ())
          inst lambda)
  in
  Printf.printf "governed solve answered by %s (cover size %d)\n\n"
    report.Mqdp.Supervisor.answered_by report.Mqdp.Supervisor.size;
  let rows =
    Hashtbl.fold (fun name r acc -> [ name; string_of_int !r ] :: acc) seen []
    |> List.sort (List.compare String.compare)
  in
  Harness.table [ "span"; "events" ] rows;
  print_newline ();
  let counter name = Util.Telemetry.counter_value (Util.Telemetry.counter name) in
  Harness.table
    [ "counter"; "value" ]
    (List.map
       (fun n -> [ n; string_of_int (counter n) ])
       [ "greedy.picks"; "greedy.marks"; "scan.picks"; "scan.marks";
         "supervisor.answered"; "supervisor.exhausted" ])

(* Disabled telemetry must stay in the "one atomic load + branch" cost
   class. 100 ns/op is ~30x the expected cost on any recent machine —
   loose enough to never flake, tight enough to catch an accidental
   allocation, lock, or sink call on the disabled path. *)
let overhead_guard () =
  assert (not (Util.Telemetry.enabled ()));
  let c = Util.Telemetry.counter "bench.overhead_probe" in
  let ops = 1_000_000 in
  (* Warm up, then measure. *)
  for _ = 1 to 10_000 do
    Util.Telemetry.incr c
  done;
  let (), elapsed =
    Util.Timer.time_it (fun () ->
        for _ = 1 to ops do
          Util.Telemetry.incr c
        done)
  in
  let ns_per_op = elapsed *. 1e9 /. float_of_int ops in
  Printf.printf "disabled Telemetry.incr: %.2f ns/op over %d ops (bound 100)\n"
    ns_per_op ops;
  if Util.Telemetry.counter_value c <> 0 then begin
    Printf.eprintf "FAIL: disabled counter recorded increments\n";
    exit 1
  end;
  if ns_per_op > 100. then begin
    Printf.eprintf "FAIL: disabled telemetry costs %.2f ns/op (bound 100)\n"
      ns_per_op;
    exit 1
  end

let run () =
  Harness.section ~id:"telemetry"
    ~paper:"(repo) observability: latency histograms, spans, disabled overhead"
    ~expect:
      "p50 <= p95 <= p99 per algorithm; spans fire for compile/solve/rungs; \
       disabled-telemetry cost stays in the one-atomic-load class";
  let inst = workload () in
  Printf.printf "instance: %d posts, %d labels\n\n" (Mqdp.Instance.size inst)
    (Mqdp.Instance.num_labels inst);
  latency_table inst;
  print_newline ();
  span_report inst;
  print_newline ();
  overhead_guard ()
