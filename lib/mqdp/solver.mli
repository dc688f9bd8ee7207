(** Uniform front-end over all MQDP algorithms.

    Dispatches by name, times the run, and verifies nothing — verification
    stays an explicit {!Coverage.is_cover} call so benchmarks measure only
    the algorithm. *)

type algorithm =
  | Opt  (** exact DP; fixed λ, small instances only *)
  | Brute_force  (** exact branch-and-bound; small instances only *)
  | Greedy_sc  (** GreedySC with the default bucket-queue selection *)
  | Greedy_sc_linear
      (** GreedySC with the paper's linear re-scan selection; both
          variants produce bit-identical covers *)
  | Scan
  | Scan_plus

type streaming_algorithm =
  | Stream_scan
  | Stream_scan_plus
  | Stream_greedy
  | Stream_greedy_plus
  | Instant  (** τ = 0 cache-based output; the [tau] argument is ignored *)

type result = {
  cover : int list;  (** positions, ascending *)
  size : int;
  elapsed : float;  (** wall-clock seconds *)
}

type streaming_result = {
  stream : Stream.result;
  stream_size : int;
  stream_elapsed : float;
}

val algorithm_name : algorithm -> string
val streaming_algorithm_name : streaming_algorithm -> string

(** [algorithm_of_string s] inverts {!algorithm_name}. *)
val algorithm_of_string : string -> algorithm option

val streaming_algorithm_of_string : string -> streaming_algorithm option

val all_algorithms : algorithm list
val all_streaming_algorithms : streaming_algorithm list

(** [run ?pool ?budget ?seed algorithm instance lambda] — the raw,
    untimed dispatch the other entry points (and {!Supervisor}) build on.
    [budget] (default unlimited) is threaded into the algorithm's inner
    loops; on exhaustion {!Interrupt.Budget_exceeded} escapes with
    whatever partial state the algorithm salvaged. [seed] positions are
    guaranteed to appear in the result: GreedySC and Scan+ exploit them
    natively (pre-marking their coverage), the others union them in. *)
val run :
  ?pool:Util.Pool.t -> ?budget:Util.Budget.t -> ?seed:int list -> algorithm ->
  Instance.t -> Coverage.lambda -> int list

(** [solve ?jobs ?budget algorithm instance lambda] — run [algorithm] with
    [jobs]-way parallelism (default 1 = sequential; raises
    [Invalid_argument] on [jobs < 1]). Parallel runs are guaranteed to
    return the same cover as sequential ones: only embarrassingly parallel
    phases (GreedySC state construction, Scan/Scan+ per-label fan-out) are
    distributed, with deterministic ordered merges. [Opt] and [Brute_force]
    ignore [jobs]. Pool startup happens outside the timed region. *)
val solve :
  ?jobs:int -> ?budget:Util.Budget.t -> algorithm -> Instance.t ->
  Coverage.lambda -> result

(** [compile ?jobs ?budget instance lambda] builds the shared {!Pair_index}
    once (with coverer sets, so every solver can run off it); with
    [jobs > 1] construction fans out over a temporary pool. Use with
    {!solve_compiled} to amortize the geometry across several algorithms
    on the same (instance, λ). On budget exhaustion the build raises
    {!Interrupt.Budget_exceeded} and no index escapes — there is no
    observable half-compiled state. *)
val compile :
  ?jobs:int -> ?budget:Util.Budget.t -> Instance.t -> Coverage.lambda -> Pair_index.t

(** [solve_compiled algorithm index] runs [algorithm] off the pre-compiled
    index; [elapsed] excludes index construction. [Opt] and [Brute_force]
    fall back to the instance behind the index. The cover is identical to
    {!solve} on the same inputs. *)
val solve_compiled : ?budget:Util.Budget.t -> algorithm -> Pair_index.t -> result

(** [compile_window ?budget instance lambda] is the incremental mirror of
    {!compile}: a {!Window_index} fed the instance's posts in order, ready
    for {!solve_window} — and for further [push]/[expire_before] calls as
    the stream moves on, which is the point. [budget] is charged one step
    per post. *)
val compile_window :
  ?budget:Util.Budget.t -> Instance.t -> Coverage.lambda -> Window_index.t

(** [solve_window ?budget ?solver algorithm window] solves the live window;
    the cover holds window positions (ascending), which equal slice
    positions of the same posts. For the GreedySC family this runs the
    windowed kernel directly (reusing [solver]'s scratch when given, the
    steady-state zero-allocation path); the remaining algorithms
    materialize the window via {!Window_index.to_instance} first — correct
    but O(size) per call. Covers are bit-identical to {!solve} on the
    materialized window. *)
val solve_window :
  ?budget:Util.Budget.t -> ?solver:Greedy_sc.window_solver -> algorithm ->
  Window_index.t -> result

val solve_stream :
  streaming_algorithm -> tau:float -> Instance.t -> Coverage.lambda -> streaming_result
