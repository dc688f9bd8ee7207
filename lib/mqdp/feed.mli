(** Fault-tolerant ingestion frontend for the {!Online} engine.

    {!Online} demands a clean feed: strictly time-ordered, duplicate-free,
    finite timestamps, and a process that never dies. Real microblog
    traffic offers none of that. [Feed] sits in front and provides:

    - a bounded {e reorder buffer}: arrivals are staged, kept sorted by
      (value, id), in a buffer of at most [reorder_window] posts and
      released to the engine in time order, so disorder up to the window
      depth is absorbed silently;
    - per-class {e fault policies}: arrivals that are late (older than the
      release watermark even after buffering), duplicates (an id already
      admitted), or carry a non-finite timestamp are dropped, clamped to
      the watermark, or raised as {!Rejected} — each outcome counted;
    - {e overload degradation}: when the number of labels with live
      deadlines exceeds [overload_budget], the most urgent labels are
      demoted to instant handling ({!Online.degrade_earliest}) — the
      emission guarantees survive, queues stop growing, and the shed work
      is counted instead of silently lost;
    - {e checkpoint/restore}: a versioned, checksummed, text serialization
      of the complete frontend + engine state. Restoring a checkpoint and
      replaying the remaining stream yields emissions bit-identical to a
      run that never died.

    Every policy decision is deterministic, so a faulty feed replays
    exactly from a seed — which is what `bin/mqdp_fuzz --fault` leans on. *)

(** What to do with a faulty arrival. [Clamp] repairs the post by moving
    its timestamp to the release watermark (for a duplicate, which has no
    repairable timestamp, it behaves like [Drop]). [Raise] throws
    {!Rejected}, leaving the stream state untouched so the caller can skip
    the post and continue. *)
type policy =
  | Drop
  | Clamp
  | Raise

type config = {
  reorder_window : int;  (** max staged posts; 0 = release immediately *)
  late : policy;
  duplicate : policy;
  non_finite : policy;
  overload_budget : int option;
      (** max labels with live deadlines before degradation; [None] never
          degrades *)
}

(** Window 64, every policy [Drop], no degradation. *)
val default_config : config

(** Monotone totals of every decision the frontend has made. *)
type counters = {
  accepted : int;  (** admitted into the reorder buffer *)
  released : int;  (** forwarded to the engine in time order *)
  reordered : int;  (** accepted although older than an earlier arrival *)
  late_dropped : int;
  late_clamped : int;
  duplicate_dropped : int;
  non_finite_dropped : int;
  non_finite_clamped : int;
  rejected : int;  (** faults that raised under a [Raise] policy *)
  degraded_labels : int;  (** labels demoted to instant handling *)
  shed : int;  (** pending posts cleared (λ-covered) by degradation *)
}

type t

exception Rejected of { id : int; what : string }

(** [create ?config ?window ~lambda mode] — a fresh frontend over a fresh
    engine. With [window:true] (default [false]) the engine mirrors the
    admitted stream into a {!Window_index} (see {!Online.create}); the
    live window travels inside checkpoints and is restored bit-identically.
    Raises [Invalid_argument] on a negative [reorder_window], a
    non-positive [overload_budget], or invalid engine parameters. *)
val create : ?config:config -> ?window:bool -> lambda:float -> Online.mode -> t

(** The engine's mirrored window, when [create] was given [window:true]
    (or the restored checkpoint carried one). *)
val window : t -> Window_index.t option

type outcome = {
  admitted : Post.t option;
      (** the post as admitted (clamping may have moved its timestamp);
          [None] when the post was dropped *)
  emissions : Online.emission list;  (** due emissions, in emit-time order *)
}

(** [push t post] — run the fault policies, stage the post, release
    everything the window no longer holds, and apply overload
    degradation. Raises {!Rejected} (before touching any stream state)
    when a fault class is configured to [Raise]. *)
val push : t -> Post.t -> outcome

(** [push_emissions t post] is [(push t post).emissions] without the
    outcome record: a dropped post returns [[]], and an admitted post the
    engine covers allocates nothing. The path {!Profile} applies posts
    by. *)
val push_emissions : t -> Post.t -> Online.emission list

(** [finish t] — release the whole reorder buffer and drain the engine.
    Like {!Online.finish}, the frontend stays usable afterwards. *)
val finish : t -> Online.emission list

val counters : t -> counters
val config : t -> config

(** The wrapped engine, for observability ({!Online.emitted_count},
    {!Online.pending_labels}, ...). Mutating it directly voids the
    checkpoint guarantees. *)
val engine : t -> Online.t

(** Number of posts currently staged in the reorder buffer. *)
val buffered : t -> int

(** Timestamp of the newest post released to the engine, or [None] before
    the first release. Arrivals below it are late. *)
val watermark : t -> float option

(** {2 Checkpointing}

    A checkpoint is a sealed image ({!Util.Fs.seal}), kind
    [mqdp-feed-checkpoint v2]: line-oriented text holding the full
    frontend and engine state — config, counters, watermarks, admitted
    ids, the staged buffer, λ and mode, per-label pending lists — and
    the mirrored window when one is attached, with floats as IEEE-754
    bit patterns so round-trips are exact. The serialization is
    canonical: [checkpoint (restore s) = s]. [restore (checkpoint t)] is
    observationally identical to [t]: pushing the same remaining stream
    produces bit-identical emissions.

    {!restore} and {!load_checkpoint} raise {!Util.Fs.Corrupt} on damage
    (checksum mismatch, bad magic, a structurally invalid body, an id
    list whose length or order is not the one {!checkpoint} writes) and
    {!Util.Fs.Unsupported_version} on an intact checkpoint of another
    format version. *)

(** [checkpoint t] allocates the image and a constant beyond it: id
    lists are sorted in a per-domain scratch, and the staged buffer, the
    engine and the window are read in place. *)
val checkpoint : t -> string

val restore : string -> t

(** [save_checkpoint ~path t] writes {!checkpoint} crash-safely: the bytes
    go to a temp sibling, are fsynced, and only then renamed over [path]
    ({!Util.Fs.atomic_write}) — a crash mid-write leaves the previous
    checkpoint intact, never a torn one. *)
val save_checkpoint : path:string -> t -> unit

val load_checkpoint : string -> t

(** {2 Field codec}

    The token encodings of checkpoints, shared with {!Profile.blob}.
    Floats are 16-hex-digit IEEE-754 bit patterns
    ({!Util.Fs.add_float_bits}), label sets ascending comma-separated
    ints (["-"] for none), posts ["<id> <value> <labels>"]. Writers
    append to a buffer; decoders raise {!Util.Fs.Corrupt}.
    {!post_of_fields} takes the post's three tokens and accepts any
    timestamp, NaN and infinities included: a post offered to a profile
    has not met the non-finite policy yet. *)

val add_labels : Buffer.t -> Label_set.t -> unit
val add_post : Buffer.t -> Post.t -> unit
val float_of_field : string -> float
val labels_of_field : string -> Label_set.t
val post_of_fields : string list -> Post.t
