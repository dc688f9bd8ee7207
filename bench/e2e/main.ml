(* The end-to-end serving benchmark for mqdp_serve.

   bash bench/e2e/run.sh [--workload W] [--seed N] [--seconds 10] [--trace 0|1]
   bash bench/e2e/run.sh --repeat N [--workload W] [--seed N] [--out FILE]
   bash bench/e2e/run.sh --compare PARENT.json CHANGE.json

   The run length is fixed (Workload.seconds, BENCHMARK.json's
   run_seconds); --seconds is accepted only with that value. One run
   prints its metrics with units and, as its last line, the
   result object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics, or with --trace 1 the per-layer ones. It exits 1
   when a correctness check fails, 2 when the open-loop generator ran
   late on two daemons in a row (the phase measured the scheduler, not
   the daemon; see [loopback] below). See bench/e2e/README.md. *)

module W = Workload

let usage () =
  Printf.eprintf
    "usage: main.exe [--workload fanout|window-query|durable|pingpong] [--seed N]\n\
    \                [--seconds %d] [--trace 0|1] [--repeat N] [--out FILE]\n\
    \       main.exe --compare PARENT.json CHANGE.json\n"
    W.seconds;
  exit 64

type options = {
  mutable workloads : W.spec list;
  mutable seed : int;
  mutable trace : bool;
  mutable repeat : int;
  mutable out : string;
  mutable compare : (string * string) option;
}

let parse argv =
  let o =
    {
      workloads = W.all;
      seed = 1;
      trace = false;
      repeat = 0;
      out = Filename.concat Daemon.work_root "repeat.json";
      compare = None;
    }
  in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match W.find w with Some s -> o.workloads <- [ s ] | None -> usage ());
      go rest
    | "--seed" :: n :: rest ->
      o.seed <- int_arg n;
      go rest
    | "--seconds" :: n :: rest ->
      if int_arg n <> W.seconds then begin
        Printf.eprintf "main.exe: a run lasts %d s; --seconds %s is not supported\n" W.seconds n;
        usage ()
      end;
      go rest
    | "--trace" :: t :: rest ->
      o.trace <- (match t with "0" -> false | "1" -> true | _ -> usage ());
      go rest
    | "--repeat" :: n :: rest ->
      o.repeat <- int_arg n;
      if o.repeat < 2 then usage ();
      go rest
    | "--out" :: f :: rest ->
      o.out <- f;
      go rest
    | "--compare" :: a :: b :: rest ->
      o.compare <- Some (a, b);
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

let metric_unit name =
  match List.find_opt (fun (m : Spec.e2e) -> String.equal m.name name) Spec.e2e with
  | Some m -> m.unit_
  | None -> (
    match List.find_opt (fun (n, _, _) -> String.equal n name) Spec.per_layer with
    | Some (_, u, _) -> u
    | None -> invalid_arg ("unknown metric " ^ name))

exception Invalid_phase of string

(* The loopback part of a run. An open-loop phase whose generator ran
   late measured the scheduler, not the daemon: it is invalid when the
   generator's p99 lateness exceeds both 1 ms and a tenth of the FEED p99
   it measures (lateness is part of every latency timed from the due
   time, so below that it moves the FEED tail by at most a tenth and the
   median not at all). A shared host steals a few milliseconds from a VM
   now and then, so an invalid phase is run once more on a fresh daemon
   before the run is declared invalid. *)
let loopback (w : W.t) ~trace =
  let attempt () =
    let lb = Run.loopback w ~boots:(if trace then 1 else Run.setups) ~record:trace in
    let late_p99 = Run.pct ~p:99. (Run.lateness w lb) in
    let limit = Float.max 1e-3 (0.1 *. Run.pct ~p:99. (Run.latencies w lb Run.is_feed)) in
    Printf.printf "loadgen late p99 %.3f ms (limit %.3f ms)\n%!" (late_p99 *. 1e3) (limit *. 1e3);
    (lb, late_p99, limit)
  in
  let lb, late_p99, limit = attempt () in
  let lb, late_p99, limit =
    if late_p99 <= limit then (lb, late_p99, limit)
    else begin
      Daemon.cleanup ();
      attempt ()
    end
  in
  if late_p99 > limit then
    raise
      (Invalid_phase
         (Printf.sprintf "%s: the generator sent open-loop requests %.3f ms late at p99 (limit %.3f ms)"
            w.spec.name (late_p99 *. 1e3) (limit *. 1e3)));
  (lb, late_p99)

(* One run of one workload: the result line (the end-to-end metrics, or
   with --trace 1 the per-layer ones) and every metric the run measured.
   Raises [Invalid_phase] when the generator ran late; correctness
   problems come back in the report. *)
let run_one (spec : W.spec) ~seed ~trace =
  let w = W.build spec ~seed in
  Printf.printf "== %s  seed %d  %d s  %d requests%s\n%!" spec.name seed W.seconds
    (Array.length w.script) (if trace then "  traced" else "");
  let lb, late_p99 = loopback w ~trace in
  Printf.printf "set-up times (s):%s\n%!"
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.4f") lb.Run.setup_times)));
  (* The traced run's reference mirrors the daemon's durability work too,
     so that its untraced time is comparable with the traced serve pass. *)
  let reference =
    Inproc.run ~faithful:trace w ~state_dir:(Daemon.scratch_dir (spec.name ^ "-ref"))
  in
  let v = Run.check w lb reference in
  let rps, drift, wall, n = Run.capacity w lb in
  Printf.printf "capacity phase: %d requests in %.3f s = %.1f req/s, drift %.3f\n%!" n wall rps drift;
  let e2e = Run.e2e_metrics lb reference in
  let layers, problems =
    if trace then Layers.metrics w lb reference v ~late_p99 else (Run.loopback_metrics w lb, [])
  in
  let reported, expected =
    if trace then (layers, List.map (fun (n, _, _) -> n) Spec.per_layer)
    else (e2e, List.map (fun (m : Spec.e2e) -> m.name) Spec.e2e)
  in
  if not (List.equal String.equal (List.map fst reported) expected) then
    invalid_arg "run_one: the metrics computed differ from Spec";
  let problems = v.Run.problems @ problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let all = e2e @ layers in
  List.iter
    (fun (name, value) -> Printf.printf "  %-34s %14.6g %s\n" name value (metric_unit name))
    all;
  Daemon.cleanup ();
  let report metrics =
    {
      Report.correct = problems = [];
      attempted = v.Run.attempted;
      failed = v.Run.failed;
      metrics =
        List.map (fun (name, value) -> { Report.name; value; unit_ = metric_unit name }) metrics;
    }
  in
  (report reported, report all)

let check_benchmark_json () =
  if Sys.file_exists "BENCHMARK.json" then
    match Spec.check ~run_seconds:W.seconds (Json.of_string (Util.Fs.read "BENCHMARK.json")) with
    | [] -> ()
    | problems ->
      List.iter (fun p -> Printf.eprintf "BENCHMARK.json: %s\n" p) problems;
      exit 1

let summarize (runs : Report.run list) =
  Printf.printf "\n%-14s %-34s %12s %12s %12s %8s\n" "workload" "metric" "q1" "median" "q3" "iqr%";
  List.iter
    (fun (spec : W.spec) ->
      List.iter
        (fun (name, _) ->
          let xs = Report.series runs ~workload:spec.name ~metric:name in
          if Array.length xs >= 2 then begin
            let q1, q2, q3 = Sample.quartiles xs in
            Printf.printf "%-14s %-34s %12.6g %12.6g %12.6g %8.2f\n" spec.name name q1 q2 q3
              (100. *. Sample.relative_iqr xs)
          end)
        (List.map (fun (m : Spec.e2e) -> (m.name, ())) Spec.e2e
        @ List.map (fun (n, _, _) -> (n, ())) Spec.per_layer))
    W.all

(* End-to-end metrics are judged against their own bounds; the others,
   which have none, against 10%. *)
let compare_files a b =
  let load f = Report.runs_of_json (Json.of_string (Util.Fs.read f)) in
  let parent = load a and change = load b in
  let judged =
    List.map (fun (m : Spec.e2e) -> (m.name, m.better, m.bound)) Spec.e2e
    @ List.map (fun (name, _, better) -> (name, better, 0.1)) Spec.per_layer
  in
  Printf.printf "%-14s %-34s %12s %12s  %s\n" "workload" "metric" "parent" "change" "verdict";
  List.iter
    (fun (spec : W.spec) ->
      List.iter
        (fun (name, better, bound) ->
          let p = Report.series parent ~workload:spec.name ~metric:name
          and c = Report.series change ~workload:spec.name ~metric:name in
          if Array.length p >= 2 && Array.length c >= 2 then
            Printf.printf "%-14s %-34s %12.6g %12.6g  %s\n" spec.name name (Util.Stats.median p)
              (Util.Stats.median c)
              (Verdict.to_string (Verdict.judge ~better ~bound ~parent:p ~change:c)))
        judged)
    W.all

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "e2e: run exceeded its time limit";
         exit 3));
  let o = parse Sys.argv in
  match o.compare with
  | Some (a, b) -> compare_files a b
  | None -> (
    check_benchmark_json ();
    Daemon.pin_self ();
    let once spec seed =
      ignore (Unix.alarm 175);
      match run_one spec ~seed ~trace:o.trace with
      | r -> r
      | exception Invalid_phase why ->
        prerr_endline why;
        exit 2
      | exception (Daemon.Failed why | Run.Unsupported why) ->
        Printf.eprintf "%s: %s\n" spec.W.name why;
        exit 1
    in
    if o.repeat = 0 then begin
      let results = List.map (fun spec -> fst (once spec o.seed)) o.workloads in
      let last = List.nth results (List.length results - 1) in
      print_endline (Report.to_line last);
      if not (List.for_all (fun r -> r.Report.correct) results) then exit 1
    end
    else begin
      let runs =
        List.concat_map
          (fun spec ->
            List.init o.repeat (fun k ->
                let seed = o.seed + k in
                { Report.workload = spec.W.name; seed; result = snd (once spec seed) }))
          o.workloads
      in
      summarize runs;
      Daemon.ensure_dir Daemon.work_root;
      let oc = open_out o.out in
      output_string oc (Json.to_string (Report.runs_to_json runs));
      close_out oc;
      Printf.printf "runs written to %s\n" o.out;
      if not (List.for_all (fun r -> r.Report.result.Report.correct) runs) then exit 1
    end)
