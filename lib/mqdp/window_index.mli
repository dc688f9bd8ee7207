(** A sliding-window coverage geometry: the incremental, mutable
    counterpart of {!Pair_index}, built for the streaming layer.

    Where {!Pair_index} compiles a whole instance once and is immutable,
    a [Window_index] ingests a stream one post at a time ([push]) and
    sheds its expired prefix ([expire_before] / [expire_posts]) with
    amortized-O(1) updates per slot. All per-post and per-(post, label)
    state lives in flat off-heap arrays ({!Util.Flat} on [Bigarray]):
    the GC never scans the window, steady-state maintenance allocates no
    OCaml-heap bytes, and the buffers can be read from {!Util.Pool}
    domains under the publish-then-read discipline.

    {2 Addressing}

    Every post has a global {e arrival sequence number}: the [i]-th
    successful [push] is post [i], forever — expiry never renumbers.
    The live window is the contiguous range [[expired t, total t)];
    window position [w] is arrival [expired t + w]. When the stream is
    (a prefix of) an {!Instance}'s posts in order, arrival numbers and
    instance positions coincide, which is what makes windowed covers
    directly comparable to offline ones.

    {2 Equivalence contract}

    For any interleaving of pushes and expiries, solving the live window
    (see {!Greedy_sc.solve_window}) is bit-identical to compiling a fresh
    {!Pair_index} over [Instance.create (live posts)] and solving that —
    same pair numbering (label-major, value-ordered), same coverer sets,
    same tie rules. Enforced by qcheck ([test/test_window_index.ml]) and
    the fuzzer ([mqdp_fuzz --window]). The contract assumes every pushed
    post carries at least one label (as {!Instance.create} drops
    unlabeled posts, which would shift positions) and, under a
    [Per_post_label] λ, that the radius function is pure.

    {2 Emission reach}

    The window carries one float per label — the right extent of the
    last/furthest emission serving that label — so streaming consumers
    ({!Online}, {!Stream_greedy}) answer "is this arrival already
    covered?" with one array read instead of a hash lookup. Two update
    disciplines coexist: {!set_emit_reach} assigns (mirroring
    {!Online}'s last-output semantics, where a later emission can have a
    {e smaller} reach), {!note_emission} takes the max (the marked-pair
    semantics of {!Stream_greedy}, where coverage is permanent). A
    window serves one discipline at a time. *)

type t

(** [create lambda] — an empty window over coverage mode [lambda]. *)
val create : Coverage.lambda -> t

val lambda : t -> Coverage.lambda

(** {1 The sliding window} *)

(** [push t post] ingests an arrival. Arrivals must be strictly
    increasing by {!Post.compare_by_value} (equal values are fine when
    ids ascend). Raises [Invalid_argument] on an out-of-order or
    non-finite arrival, a negative label, or a negative coverage
    radius. Amortized cost: O(log |LP(a)|) per label of the post. *)
val push : t -> Post.t -> unit

(** [try_push t post] is [push] except that an out-of-order arrival is
    skipped and reported as [false] instead of raising — the tolerant
    entry point for {!Online} mirrors fed by clamping frontends. The
    other validation failures still raise. *)
val try_push : t -> Post.t -> bool

(** [expire_before t ~time] drops every post with value < [time] (the
    window keeps [value >= time], matching [Instance.sub ~lo:time]).
    Amortized O(1) per dropped slot, including storage compaction. *)
val expire_before : t -> time:float -> unit

(** [expire_posts t k] drops the [k] oldest posts — the exact-boundary
    variant {!Stream_greedy} needs when equal values straddle a window
    edge. Raises [Invalid_argument] when [k] exceeds the live size. *)
val expire_posts : t -> int -> unit

(** Number of live posts. *)
val size : t -> int

(** Number of posts expired so far = the arrival number of the window
    head. *)
val expired : t -> int

(** Total posts ever pushed; [size t = total t - expired t]. *)
val total : t -> int

(** Live (post, label) pairs — the solve universe of the current
    window. *)
val live_pairs : t -> int

(** [value t w] / [id t w] — value and external id of the post at
    window position [w]. Raise [Invalid_argument] out of range. *)
val value : t -> int -> float

val id : t -> int -> int

(** [add_value_bits b t w] appends {!Util.Fs.add_float_bits} of
    [value t w] without boxing the value: the checkpoint writer's read of
    a window post's timestamp. *)
val add_value_bits : Buffer.t -> t -> int -> unit

(** [post t w] reconstructs the post at window position [w]
    (allocates; for export paths, not solve loops). *)
val post : t -> int -> Post.t

(** [iter_labels t w f] applies [f] to the labels of the post at window
    position [w], ascending, allocating nothing: {!post} without the
    reconstruction. *)
val iter_labels : t -> int -> (Label.t -> unit) -> unit

(** [find_position t post] — the {e arrival number} of a live post equal
    to [post] under {!Post.compare_by_value}, or -1 when absent.
    O(log size). *)
val find_position : t -> Post.t -> int

(** [to_instance t] materializes the live window as a fresh instance —
    the bridge to offline solvers (allocates O(size)). *)
val to_instance : t -> Instance.t

(** [is_cover t cover] — do the posts at window positions [cover] cover
    every live (post, label) pair? {!Coverage.is_cover} on
    [to_instance t], answered in place: one sweep per label over its
    live members, O(live pairs + labels × |cover|), allocating nothing
    when [cover] is ascending (any other order is sorted first). Under a
    fixed λ it applies {!Coverage}'s own [|Δ| <= λ] test to the stored
    values, so the two agree bit for bit; under a per-post λ it tests
    the stored intervals [[v - r, v + r]] that the solvers cover with,
    which agree with [|Δ| <= r] except where rounding [v ± r] moves an
    endpoint across a member's value. Positions outside [[0, size t)]
    raise [Invalid_argument], as in {!Coverage}. *)
val is_cover : t -> int list -> bool

(** {1 Marks and emission reach} *)

(** [fully_covered t w] — are all of post [w]'s own pairs marked?
    Marks are set by the streaming greedy's pick kernel and, at push
    time, by comparing the arrival against {!emit_reach} (an arrival
    within the recorded reach of its label's last emission is born
    covered). *)
val fully_covered : t -> int -> bool

(** [emit_reach t a] — the recorded emission reach for label [a];
    [neg_infinity] when the label has never been served. *)
val emit_reach : t -> Label.t -> float

(** [set_emit_reach t a r] assigns label [a]'s reach (the {!Online}
    discipline: tracks the latest output, not the furthest). *)
val set_emit_reach : t -> Label.t -> float -> unit

(** [note_emission t post] raises the reach of each of [post]'s labels
    to [Coverage.reach lambda post a] (the {!Stream_greedy} discipline:
    coverage is permanent, so the max is the truth). *)
val note_emission : t -> Post.t -> unit

(** {1 Solving}

    The windowed greedy lives in {!Greedy_sc.solve_window}; this module
    only exposes the geometry kernels it drives. A [solver] is the
    reusable off-heap scratch (pair tables, coverer ranges or CSR rows,
    covered bits): create one, reuse it across every solve of every
    window, and the steady state allocates nothing. *)

type solver

val solver : unit -> solver

(** [begin_solve t sv ~marked ~gain] snapshots the live window's pair
    geometry into [sv] and writes each window position's initial gain
    into [gain.(0 .. size t - 1)]: the number of live pairs the post
    covers, excluding already-marked pairs when [marked] is set. With
    [marked = false] the solve is pristine — covered state lives in
    per-solve scratch bits and the result is the equivalence-contract
    cover; with [marked = true] the persistent marks are both the
    starting state and the place picks are recorded (the streaming
    greedy). The snapshot is valid until the next [push] or expiry.
    Raises [Invalid_argument] when [gain] is shorter than [size t]. *)
val begin_solve : t -> solver -> marked:bool -> gain:int array -> unit

(** [apply_pick t sv ~gain ~dirty ~touched w] commits window position
    [w] as a greedy pick — the windowed twin of
    {!Pair_index.apply_pick}, same caller contract: marks every pair
    [w] covers, decrements the coverers' gains for each pair newly
    marked, records touched positions deduplicated via [dirty] (given
    and returned all-zero), and returns how many were touched. Buffers
    must hold at least [size t] entries. Allocates nothing. *)
val apply_pick :
  t -> solver -> gain:int array -> dirty:Bytes.t -> touched:int array -> int -> int

(** {1 Checkpointing} *)

type snapshot = {
  snap_expired : int;  (** arrival number of the window head *)
  snap_posts : Post.t list;  (** live posts, ascending *)
  snap_guard_value : float;  (** last admitted (value, id), for the *)
  snap_guard_id : int;  (** ordering guard across empty windows *)
  snap_guarded : bool;  (** whether any post was ever admitted *)
}

(** [export t] captures the window's post content. Marks and emission
    reaches are {e not} captured: {!Online} re-derives reaches from its
    own snapshot on import, and the marked-pair consumer
    ({!Stream_greedy}) is a batch simulation that never checkpoints. *)
val export : t -> snapshot

(** [guard t] is [(snap_guarded, snap_guard_value, snap_guard_id)] of
    [export t]: the window's checkpoint header without its posts, which
    a writer reads in place through {!expired}, {!size}, {!id}, {!value}
    and {!iter_labels}. *)
val guard : t -> bool * float * int

(** [import lambda s] rebuilds a window: re-pushes the live posts (so
    arrival numbers resume at [snap_expired]) and restores the ordering
    guard. Raises [Invalid_argument] on posts out of order. *)
val import : Coverage.lambda -> snapshot -> t
