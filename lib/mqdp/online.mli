(** An incremental, push-based streaming diversifier — the paper's
    StreamScan family (§5.1) as a long-lived service rather than a batch
    simulation.

    Feed posts one at a time in non-decreasing value (time) order; each
    [push] returns the emissions that became due strictly before the new
    arrival (their deadlines passed), plus — in [Instant] mode — possibly
    the arriving post itself. Call [finish] at end-of-stream to drain the
    pending deadlines. {!Stream_scan} is an adapter over this engine, so
    the batch and incremental APIs cannot drift apart.

    Delayed mode keeps, per label, the pending uncovered posts and emits
    the latest of them at min(t_latest + τ, t_oldest + λ); emissions are
    credited to every label of the emitted post when [plus] is set.
    Instant mode emits an arriving post immediately unless the per-label
    cache of recent selections already covers it (2s bound). *)

type mode =
  | Delayed of { tau : float; plus : bool }
  | Instant

type emission = {
  post : Post.t;
  emit_time : float;
}

type t

(** [create ?window ~lambda mode] — a fresh diversifier.

    When [window] is given (an empty or restored {!Window_index} over
    [Fixed lambda]), the engine mirrors the admitted stream into it: each
    push expires posts older than [previous arrival − τ − λ] (nothing
    older can be emitted or cover pending/future work) and appends the
    arrival, and per-label coverage state ("is this arrival within the
    latest output's reach?") is kept in the window's off-heap reach table
    instead of per-label heap boxes. Emissions are bit-identical with and
    without a window (enforced by qcheck and the fuzzer); the window adds
    a queryable geometry over the live posts ({!Window_index.find_position},
    {!Greedy_sc.solve_window}) for frontends like {!Stream_scan} and
    {!Feed} checkpoints.

    Raises [Invalid_argument] when [lambda < 0], the mode's [tau < 0], or
    [window]'s coverage mode is not [Fixed lambda]. *)
val create : ?window:Window_index.t -> lambda:float -> mode -> t

(** The mirrored window, if one was attached at creation. *)
val window : t -> Window_index.t option

(** The [lambda] and [mode] given to {!create}. *)
val lambda : t -> float

val mode : t -> mode

(** [push t post] — register an arrival; returns due emissions in emit-time
    order. Only deadlines *strictly* before [post.value] fire: an arrival
    at exactly a pending deadline is processed first, since the arriving
    post may itself cover the pending pairs (it is then emitted at the
    deadline, which equals its own timestamp). Raises [Invalid_argument]
    when [post.value] precedes the previous arrival. *)
val push : t -> Post.t -> emission list

(** [finish t] — drain every pending deadline; the diversifier can keep
    receiving posts afterwards (the stream simply continues). *)
val finish : t -> emission list

(** Number of distinct posts emitted so far. *)
val emitted_count : t -> int

(** Current length of the internal deadline queue, stale entries included.
    Exposed for observability: the engine keeps this O(pending labels)
    (deduplicated pushes plus periodic compaction), not O(arrivals). *)
val deadline_queue_length : t -> int

(** Number of labels with a non-empty pending list — the live size of the
    deadline queue. Unlike {!deadline_queue_length} this is independent of
    stale-entry history, so overload decisions based on it survive
    checkpoint/restore bit-identically. *)
val pending_labels : t -> int

(** Value of the latest arrival, or [None] before the first push. *)
val last_arrival : t -> float option

(** {2 Overload degradation}

    Under sustained overload a [Delayed] engine can demote individual
    labels to [Instant] handling: the demoted label's latest pending post
    is emitted immediately (it λ-covers the label's whole pending window,
    and the emission precedes the pending deadline, so neither coverage
    nor the delay guarantee is lost), the rest of its queue is shed, and
    every later uncovered arrival on the label is emitted on the spot —
    the paper's 2s-approximation regime. Demotion is sticky. *)

(** [degrade_earliest t ~now] demotes the label holding the earliest live
    deadline. Returns [Some (label, shed, emissions)] — [shed] counts the
    pending posts cleared without their own emission (all λ-covered by the
    emitted one) — or [None] when nothing is pending. [now] is the current
    stream time; the emission is stamped within [max(value, min(now,
    deadline))]. *)
val degrade_earliest : t -> now:float -> (Label.t * int * emission list) option

val is_degraded : t -> Label.t -> bool
val degraded_count : t -> int

(** {2 Checkpointing}

    A snapshot captures the engine's complete observable state; feeding
    the same suffix of a stream to [import (export t)] yields emissions
    bit-identical to continuing with [t] itself. Snapshots are plain data
    so a frontend (see {!Feed}) can serialize them however it likes. *)

type label_snapshot = {
  snap_label : Label.t;
  snap_pending : Post.t list;  (** pending uncovered arrivals, newest first *)
  snap_last_out : Post.t option;  (** latest emission serving this label *)
}

type snapshot = {
  snap_lambda : float;
  snap_mode : mode;
  snap_last_time : float option;
  snap_emitted : int list;  (** distinct emitted post ids, ascending *)
  snap_degraded : Label.t list;  (** demoted labels, ascending *)
  snap_labels : label_snapshot list;  (** ascending by label *)
}

val export : t -> snapshot

(** [import ?window s] rebuilds an engine from a snapshot, recomputing
    deadlines and the (compacted) deadline queue. [window] attaches a
    mirror as in {!create} — pass the {!Window_index.import} of the
    window state saved alongside the snapshot; its reach table is
    re-derived here from the snapshot's last-output posts. Raises
    [Invalid_argument] on a structurally invalid snapshot (negative
    lambda/tau, a pending list that is not newest-first, or pending posts
    newer than the recorded last arrival). *)
val import : ?window:Window_index.t -> snapshot -> t
