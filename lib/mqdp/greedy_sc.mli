(** Algorithm GreedySC (paper §4.2): reduce MQDP to set cover and run the
    greedy set-cover algorithm.

    The universe is the set of (post, label) pairs; the set contributed by
    post [Pk] is every pair [Pk] λ-covers. Approximation ratio
    ln(|P|·|L|). At every round the set with the most still-uncovered
    elements is selected.

    All coverage geometry comes from a compiled {!Pair_index}: covered
    flags are one flat byte per pair and committing a pick runs the fused
    {!Pair_index.apply_pick} kernel. The selection loop performs no
    per-round allocation for any strategy; the default bucket-queue loop
    allocates nothing at all per select (asserted by [bench --exp micro]).

    Two selection strategies, both producing {e bit-identical covers}
    (each resolves gain ties toward the smallest position; enforced by
    qcheck and the fuzzer's kernel cross-check):

    - [`Bucket_queue] (default): a monotone bucket queue keyed on integer
      gains. Gains only decrease, so decrease-key and pop are O(1)
      amortized and the queue holds at most one slot per live candidate —
      no lazily-deleted stale entries.
    - [`Linear_scan]: re-scan all gains each round — what the paper's
      implementation does, after finding heap maintenance too expensive
      on their data; kept as the oracle the bucket queue is checked
      against. *)

type selection = [ `Linear_scan | `Bucket_queue ]

(** The mutable set-cover state (gain array, flat covered state, pick and
    touched-position buffers, and the gain bucket queue) over either a
    compiled {!Pair_index} or a live {!Window_index} — the selection loops
    are geometry-agnostic, so all guarantees below hold for both. *)
type state

(** [create_state ?pool ?budget instance lambda] compiles a {!Pair_index}
    (with coverer sets) and builds the state [solve] starts from;
    construction is the dominant cost on large instances and fans out over
    [pool] when given. Exposed for the scaling benchmark. *)
val create_state :
  ?pool:Util.Pool.t -> ?budget:Util.Budget.t -> Instance.t -> Coverage.lambda -> state

(** [state_of_index ?pool ?budget index] builds the state from an
    already-compiled index — [index] must have been built with coverer sets
    (the default). Exposed (also) so the allocation benchmark can separate
    state construction from the solve loop proper. *)
val state_of_index : ?pool:Util.Pool.t -> ?budget:Util.Budget.t -> Pair_index.t -> state

(** [solve ?selection ?pool ?budget ?seed instance lambda] returns cover
    positions, ascending. Default selection is [`Bucket_queue]. When
    [pool] is given, index compilation and gain initialization fan out
    across the pool's domains; the selection loop itself stays sequential.
    The cover is bit-identical to a run without [pool] — and to the
    other selection strategy.

    [budget] (default unlimited) is charged one step per post during
    initialization, [n] per linear-scan round, and one per queue pop; on
    exhaustion mid-selection the {!Interrupt.Budget_exceeded}
    carries the picks so far as a [Partial_cover].

    [seed] positions are committed before the greedy loop: everything they
    cover is pre-marked and they are included in the result, so the answer
    is a full cover whatever the seed — the mechanism by which a supervisor
    hands a cheaper algorithm the salvage of an interrupted one. *)
val solve :
  ?selection:selection -> ?pool:Util.Pool.t -> ?budget:Util.Budget.t ->
  ?seed:int list -> Instance.t -> Coverage.lambda -> int list

(** [solve_indexed ?selection ?pool ?budget ?seed index] is {!solve} on a
    pre-compiled index (built with coverer sets). *)
val solve_indexed :
  ?selection:selection -> ?pool:Util.Pool.t -> ?budget:Util.Budget.t ->
  ?seed:int list -> Pair_index.t -> int list

(** {2 Windowed solving}

    The same greedy over a live {!Window_index}: candidate positions are
    window positions [0 .. Window_index.size w - 1], and the cover is
    bit-identical to {!solve} on [Window_index.to_instance w] (the
    equivalence contract of {!Window_index}, enforced by qcheck and the
    fuzzer). *)

(** Reusable off-heap scratch for windowed solves: geometry snapshot,
    selection buffers, and the bucket queue, grown by doubling and kept
    across solves so a steady-state stream of solves allocates only the
    per-solve state record. A [window_solver] serves one solve at a time
    but may hop freely between windows. *)
type window_solver

val window_solver : unit -> window_solver

(** [state_of_window ?marked ?solver ?budget w] snapshots the live window
    (via {!Window_index.begin_solve}) and builds the selection state.
    [marked] (default false) starts from — and records picks into — the
    window's persistent coverage marks (the streaming greedy); the default
    is a pristine solve of the whole live window. [budget] is charged one
    linear-scan round ([size w] steps) for the snapshot. *)
val state_of_window :
  ?marked:bool -> ?solver:window_solver -> ?budget:Util.Budget.t ->
  Window_index.t -> state

(** [solve_window ?selection ?marked ?solver ?budget ?seed w] — windowed
    {!solve}; returns window positions, ascending. *)
val solve_window :
  ?selection:selection -> ?marked:bool -> ?solver:window_solver ->
  ?budget:Util.Budget.t -> ?seed:int list -> Window_index.t -> int list

(** {2 Stepping}

    Single-pick interface for callers that interleave greedy picks with
    other bookkeeping ({!Stream_greedy}'s emission loop). *)

(** [pop_best st] removes and returns the canonical next pick — maximum
    gain, smallest position on ties, exactly the choice every selection
    strategy makes — or -1 when no candidate has positive gain. The pick
    is not committed. *)
val pop_best : state -> int

(** [commit st k] records [k] as a pick and applies its coverage (marks,
    gain decrements, queue updates). [k] must come from {!pop_best}. *)
val commit : state -> int -> unit

(** [picks_so_far st] — committed picks, ascending. *)
val picks_so_far : state -> int list
