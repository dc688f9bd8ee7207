(** Resource-governed solving: walk a ladder of progressively cheaper
    algorithms under one {!Util.Budget}, salvaging partial work between
    rungs, and always return a valid cover.

    The default ladder is OPT → GreedySC → Scan+ → instant pick. Each rung
    except the ladder's last runs on a {!Util.Budget.child} holding half
    the remaining budget (so an expensive rung can fail without starving
    its fallbacks); the last ladder rung gets everything left; the instant
    floor — {!Stream_scan.solve_instant} under a fixed λ, the identity
    cover otherwise — runs unguarded and cannot fail.

    When a rung's budget runs out, the {!Interrupt.Budget_exceeded} payload
    is inspected: if the salvaged positions already form a valid cover
    (e.g. {!Brute_force}'s branch-and-bound incumbent) the supervisor
    answers with them immediately ([Salvaged]); otherwise they seed the
    next rung ([Exhausted]), which pre-marks their coverage instead of
    rediscovering it. Typed refusals — {!Opt.Infeasible},
    [Opt.Too_large], [Opt.Unsupported], [Brute_force.Too_large] — skip to
    the next rung without consuming it ([Refused]).

    A {!Breaker.t}, when supplied, remembers per-rung failures across
    [solve] calls: after [threshold] consecutive failures a rung is skipped
    outright ([Skipped_breaker]) until [cooldown] seconds pass, at which
    point one half-open trial is allowed. *)

(** Per-rung circuit breaker, keyed by algorithm name. Safe to share
    across domains: every query and transition is mutex-serialized, so a
    breaker can follow a profile that migrates between {!Util.Pool}
    workers (the serving layer does exactly that). The classic half-open
    race remains semantically possible — several domains may each observe
    [available] during one cooldown window and run a trial concurrently —
    but the recorded outcomes are applied atomically, so the breaker
    always lands in a consistent state: any trial failure at/past the
    threshold re-arms the cooldown, any success closes the circuit. *)
module Breaker : sig
  type t

  (** [create ?threshold ?cooldown ()] — open a rung's circuit after
      [threshold] consecutive failures (default 3); allow a half-open
      retrial after [cooldown] seconds (default 30.). *)
  val create : ?threshold:int -> ?cooldown:float -> unit -> t

  (** Is the rung currently allowed to run? True when closed, or when open
      but the cooldown has elapsed (half-open). *)
  val available : t -> string -> bool

  (** Consecutive-failure count for a rung (0 when unknown or closed). *)
  val failures : t -> string -> int

  val record_success : t -> string -> unit

  (** Increment the failure count; (re)arm the cooldown when it reaches the
      threshold — including on a failed half-open trial. *)
  val record_failure : t -> string -> unit
end

type outcome =
  | Answered  (** the rung completed within its budget *)
  | Salvaged of Util.Budget.stop_reason
      (** the rung ran out, but its salvage was already a valid cover *)
  | Exhausted of Util.Budget.stop_reason
      (** ran out; salvage (possibly empty) was passed down as a seed *)
  | Refused of string  (** typed pre-flight refusal, budget not consumed *)
  | Skipped_breaker  (** circuit open: rung not attempted *)

type attempt = {
  rung : string;
  outcome : outcome;
  seeded_with : int;  (** positions carried into this rung *)
  rung_elapsed : float;  (** seconds spent inside this rung *)
}

type report = {
  answered_by : string;  (** rung name, ["instant"] for the floor *)
  cover : int list;  (** positions, ascending; always a valid cover *)
  size : int;
  attempts : attempt list;  (** in attempt order, the answering rung last *)
  total_elapsed : float;
}

val outcome_to_string : outcome -> string

(** One line per attempt: rung, outcome, seed size, elapsed. *)
val describe : report -> string

(** The built-in ladder: [[Opt; Greedy_sc; Scan_plus]]. *)
val default_ladder : Solver.algorithm list

(** [ladder_from algorithm] — the suffix of {!default_ladder} starting at
    [algorithm], or [[algorithm]] when it is not a ladder member (e.g.
    [Brute_force]); the instant floor always remains underneath. *)
val ladder_from : Solver.algorithm -> Solver.algorithm list

(** The unguarded floor: a valid cover computed without any budget —
    {!Stream_scan.solve_instant} under a fixed λ, every position
    otherwise. *)
val instant_cover : Instance.t -> Coverage.lambda -> int list

(** [solve ?pool ?budget ?breaker ?ladder instance lambda] walks the
    ladder as described above. The returned cover is always
    {!Coverage.is_cover}-valid; [report.attempts] records what each rung
    did and how long it ran. With the default unlimited budget the first
    available rung answers and the result is identical to calling that
    algorithm directly. *)
val solve :
  ?pool:Util.Pool.t ->
  ?budget:Util.Budget.t ->
  ?breaker:Breaker.t ->
  ?ladder:Solver.algorithm list ->
  Instance.t ->
  Coverage.lambda ->
  report

(** [solve_window ?budget ?breaker ?ladder ?solver window] is
    {!solve} on the live window, read in place: the GreedySC rungs run
    {!Solver.solve_window} on [window] (with [solver]'s reusable
    scratch), and every other rung and the instant floor share one
    {!Window_index.to_instance} copy, built only if the ladder reaches
    them. Candidate covers are judged by {!Window_index.is_cover}. Covers
    are window positions, ascending. With an unlimited budget the report
    ([answered_by], [cover], [size]) equals {!solve} on
    [Window_index.to_instance window]; under a finite budget the rung
    that answers can differ, because the windowed GreedySC charges one
    linear-scan round for its snapshot where the compiled one charges
    per post. *)
val solve_window :
  ?budget:Util.Budget.t ->
  ?breaker:Breaker.t ->
  ?ladder:Solver.algorithm list ->
  ?solver:Greedy_sc.window_solver ->
  Window_index.t ->
  report
