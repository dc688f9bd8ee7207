type algorithm =
  | Opt
  | Brute_force
  | Greedy_sc
  | Greedy_sc_linear
  | Scan
  | Scan_plus

type streaming_algorithm =
  | Stream_scan
  | Stream_scan_plus
  | Stream_greedy
  | Stream_greedy_plus
  | Instant

type result = {
  cover : int list;
  size : int;
  elapsed : float;
}

type streaming_result = {
  stream : Stream.result;
  stream_size : int;
  stream_elapsed : float;
}

let algorithm_name = function
  | Opt -> "opt"
  | Brute_force -> "brute-force"
  | Greedy_sc -> "greedy-sc"
  | Greedy_sc_linear -> "greedy-sc-linear"
  | Scan -> "scan"
  | Scan_plus -> "scan+"

let streaming_algorithm_name = function
  | Stream_scan -> "stream-scan"
  | Stream_scan_plus -> "stream-scan+"
  | Stream_greedy -> "stream-greedy-sc"
  | Stream_greedy_plus -> "stream-greedy-sc+"
  | Instant -> "instant"

let all_algorithms =
  [ Opt; Brute_force; Greedy_sc; Greedy_sc_linear; Scan; Scan_plus ]

let all_streaming_algorithms =
  [ Stream_scan; Stream_scan_plus; Stream_greedy; Stream_greedy_plus; Instant ]

let algorithm_of_string s =
  List.find_opt (fun a -> algorithm_name a = s) all_algorithms

let streaming_algorithm_of_string s =
  List.find_opt (fun a -> streaming_algorithm_name a = s) all_streaming_algorithms

(* [seed] is honored natively by the algorithms that can exploit it
   (GreedySC pre-marks and skips, Scan+ pre-marks); for the rest the seed
   is unioned into the answer, so "seed ⊆ result" and "result is a cover"
   hold for every algorithm (coverage is monotone in the cover set). *)
let run ?pool ?budget ?(seed = []) algorithm instance lambda =
  let union cover =
    if seed = [] then cover else List.sort_uniq Int.compare (List.rev_append seed cover)
  in
  Util.Telemetry.span ~name:("solve." ^ algorithm_name algorithm) @@ fun () ->
  match algorithm with
  | Opt -> union (Opt.solve ?budget instance lambda)
  | Brute_force -> union (Brute_force.solve ?budget instance lambda)
  | Greedy_sc -> Greedy_sc.solve ~selection:`Bucket_queue ?pool ?budget ~seed instance lambda
  | Greedy_sc_linear ->
    Greedy_sc.solve ~selection:`Linear_scan ?pool ?budget ~seed instance lambda
  | Scan -> union (Scan.solve ?pool ?budget instance lambda)
  | Scan_plus -> Scan.solve_plus ?pool ?budget ~seed instance lambda

let solve ?(jobs = 1) ?budget algorithm instance lambda =
  if jobs < 1 then invalid_arg "Solver.solve: jobs < 1";
  (* The pool is created (and its domains spawned) outside the timed
     region so [elapsed] measures the algorithm, not domain startup. *)
  let timed pool =
    let cover, elapsed =
      Util.Timer.time_it (fun () -> run ?pool ?budget algorithm instance lambda)
    in
    { cover; size = List.length cover; elapsed }
  in
  if jobs = 1 then timed None
  else Util.Pool.with_pool ~jobs (fun pool -> timed (Some pool))

let compile ?(jobs = 1) ?budget instance lambda =
  if jobs < 1 then invalid_arg "Solver.compile: jobs < 1";
  Util.Telemetry.span ~name:"solver.compile" @@ fun () ->
  if jobs = 1 then Pair_index.build ?budget instance lambda
  else Util.Pool.with_pool ~jobs (fun pool -> Pair_index.build ~pool ?budget instance lambda)

let solve_window ?budget ?solver ?seed ?(materialize = Window_index.to_instance) algorithm
    window =
  let go () =
    Util.Telemetry.span ~name:("solve_window." ^ algorithm_name algorithm)
    @@ fun () ->
    match algorithm with
    | Greedy_sc ->
      Greedy_sc.solve_window ~selection:`Bucket_queue ?solver ?budget ?seed window
    | Greedy_sc_linear ->
      Greedy_sc.solve_window ~selection:`Linear_scan ?solver ?budget ?seed window
    | Opt | Brute_force | Scan | Scan_plus ->
      (* Documented slow path: these have no incremental formulation yet,
         so the live window is materialized as a fresh instance. Window
         positions and slice positions coincide, so the cover needs no
         translation. *)
      run ?budget ?seed algorithm (materialize window) (Window_index.lambda window)
  in
  let cover, elapsed = Util.Timer.time_it go in
  { cover; size = List.length cover; elapsed }

let solve_compiled ?budget algorithm index =
  let run () =
    Util.Telemetry.span ~name:("solve." ^ algorithm_name algorithm) @@ fun () ->
    match algorithm with
    | Opt -> Opt.solve ?budget (Pair_index.instance index) (Pair_index.lambda index)
    | Brute_force ->
      Brute_force.solve ?budget (Pair_index.instance index) (Pair_index.lambda index)
    | Greedy_sc -> Greedy_sc.solve_indexed ~selection:`Bucket_queue ?budget index
    | Greedy_sc_linear -> Greedy_sc.solve_indexed ~selection:`Linear_scan ?budget index
    | Scan -> Scan.solve_indexed ?budget index
    | Scan_plus -> Scan.solve_plus_indexed ?budget index
  in
  let cover, elapsed = Util.Timer.time_it run in
  { cover; size = List.length cover; elapsed }

let solve_stream algorithm ~tau instance lambda =
  let run () =
    match algorithm with
    | Stream_scan -> Stream_scan.solve ~plus:false ~tau instance lambda
    | Stream_scan_plus -> Stream_scan.solve ~plus:true ~tau instance lambda
    | Stream_greedy -> Stream_greedy.solve ~plus:false ~tau instance lambda
    | Stream_greedy_plus -> Stream_greedy.solve ~plus:true ~tau instance lambda
    | Instant -> Stream_scan.solve_instant instance lambda
  in
  let stream, stream_elapsed = Util.Timer.time_it run in
  { stream; stream_size = List.length stream.Stream.cover; stream_elapsed }
