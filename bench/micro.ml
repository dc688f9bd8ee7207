(* Bechamel micro-benchmarks: one Test.make per algorithm family on a
   fixed 10-minute slice, analyzed with OLS against the monotonic clock.
   These complement the wall-clock figures 13-15 with statistically
   grounded per-run estimates. *)

open Bechamel
open Toolkit

let slice = lazy (Workloads.ten_minute ~rate:30. ~overlap:1.5 ~labels:5 ~seed:7 ())
let lambda = Mqdp.Coverage.Fixed 30.

let tests () =
  let inst = Lazy.force slice in
  let offline name algo =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore ((Mqdp.Solver.solve algo inst lambda).Mqdp.Solver.cover)))
  in
  let streaming name algo =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             ((Mqdp.Solver.solve_stream algo ~tau:10. inst lambda)
                .Mqdp.Solver.stream_size)))
  in
  Test.make_grouped ~name:"mqdp"
    [
      offline "scan" Mqdp.Solver.Scan;
      offline "scan+" Mqdp.Solver.Scan_plus;
      offline "greedy-sc" Mqdp.Solver.Greedy_sc;
      offline "greedy-sc-linear" Mqdp.Solver.Greedy_sc_linear;
      streaming "stream-scan" Mqdp.Solver.Stream_scan;
      streaming "stream-scan+" Mqdp.Solver.Stream_scan_plus;
      streaming "stream-greedy-sc" Mqdp.Solver.Stream_greedy;
      streaming "stream-greedy-sc+" Mqdp.Solver.Stream_greedy_plus;
      streaming "instant" Mqdp.Solver.Instant;
    ]

(* [Gc.minor ()] before each counter read: the runtime only flushes the
   minor allocation counters at collection boundaries (observed on 5.1),
   so unflushed reads smear one probe's allocation into the next and
   quantize everything by minor-GC timing. With the flush the numbers are
   exact and reproducible. *)
let bytes_per_run f =
  let rounds = 5 in
  ignore (f ());
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to rounds do
    ignore (f ())
  done;
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int rounds

(* Allocation profile of a GreedySC solve under the per-post λ of Eq. 2.
   With the pair index compiled once up front, a solve allocates only its
   own bookkeeping (one Bytes.t of covered flags, one gain array, the
   bucket queue) — selection itself is allocation-free. The
   "incl. compile" column re-builds the index every solve for contrast. *)
let alloc_tests inst =
  let lambda = Mqdp.Proportional.make ~lambda0:30. inst in
  let index = Mqdp.Solver.compile inst lambda in
  let row name algo =
    let compiled =
      bytes_per_run (fun () -> (Mqdp.Solver.solve_compiled algo index).Mqdp.Solver.cover)
    in
    let from_scratch =
      bytes_per_run (fun () -> (Mqdp.Solver.solve algo inst lambda).Mqdp.Solver.cover)
    in
    [ name;
      Printf.sprintf "%.0f" compiled;
      Printf.sprintf "%.0f" from_scratch ]
  in
  Printf.printf "\nGc.allocated_bytes per solve, per-post lambda (lambda0 = 30s):\n";
  Harness.table
    [ "benchmark"; "bytes/solve (compiled)"; "bytes/solve (incl. compile)" ]
    [ row "greedy-sc" Mqdp.Solver.Greedy_sc; row "greedy-sc-linear" Mqdp.Solver.Greedy_sc_linear ]

(* Zero-allocation gate on the compiled bucket-queue solve path (styled
   after the telemetry overhead guard: print the numbers, exit 1 on
   breach). [solve_compiled] = state construction + selection loop +
   canonical result; subtracting a bare [state_of_index] isolates the
   loop and result. The loop proper allocates nothing, so what remains is
   the result list (one array copy + one cons per pick, < 64 bytes each)
   plus timer/span bookkeeping — any per-pick boxing regression (options,
   closures, list consing) blows through the budget by orders of
   magnitude. *)
let alloc_gate () =
  let inst = Workloads.one_day ~labels:5 ~seed:3 in
  let lambda = Mqdp.Proportional.make ~lambda0:30. inst in
  let index = Mqdp.Solver.compile inst lambda in
  let reference = Mqdp.Solver.solve_compiled Mqdp.Solver.Greedy_sc index in
  let solve_bytes =
    bytes_per_run (fun () ->
        ignore (Mqdp.Solver.solve_compiled Mqdp.Solver.Greedy_sc index).Mqdp.Solver.cover)
  in
  let state_bytes = bytes_per_run (fun () -> ignore (Mqdp.Greedy_sc.state_of_index index)) in
  let loop_bytes = solve_bytes -. state_bytes in
  let picks = reference.Mqdp.Solver.size in
  let budget = (64. *. float_of_int picks) +. 4096. in
  Printf.printf
    "\nzero-alloc gate (one day, |L| = 5, per-post lambda): %d picks\n\
     solve %.0f B - state %.0f B = loop+result %.0f B (budget %.0f B)\n"
    picks solve_bytes state_bytes loop_bytes budget;
  if loop_bytes > budget then begin
    Printf.eprintf
      "FAIL: compiled greedy-sc solve loop allocated %.0f bytes (budget %.0f)\n"
      loop_bytes budget;
    exit 1
  end;
  Printf.printf "zero-alloc gate: OK\n"

let run () =
  Harness.section ~id:"micro"
    ~paper:"Bechamel micro-benchmarks (supplement to Figures 13-15)"
    ~expect:"scan-family runs 1-3 orders of magnitude faster than greedy-family";
  let inst = Lazy.force slice in
  Printf.printf "workload: %d posts, |L| = 5, overlap %.2f, lambda = 30s, tau = 10s\n\n"
    (Mqdp.Instance.size inst) (Mqdp.Instance.overlap_rate inst);
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.6) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> Printf.sprintf "%.1f" (e /. 1000.)
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      rows := [ name; estimate; r2 ] :: !rows)
    results;
  Harness.table
    [ "benchmark"; "us/run (OLS)"; "r²" ]
    (* Typed comparator: polymorphic [compare] on string lists works today
       but silently picks up whatever representation lands in the rows. *)
    (List.sort (List.compare String.compare) !rows);
  alloc_tests inst;
  alloc_gate ()
