(** A failure domain holding many {!Profile}s: one bounded ingest queue,
    one supervised processing loop, one durable snapshot.

    The shard's "queue" is the union of its profiles' pending journals —
    {!offer} acknowledges a post into a profile's journal and {!tick}
    drains them — bounded by [queue_capacity] across the whole shard.
    A full queue {e sheds}: {!offer} returns [false], the post is not
    acknowledged, and the shed is counted. Quarantined profiles shed
    their traffic too (their journals are frozen until revived).

    {!tick} is the supervised loop: profiles are processed in name order
    (deterministic), each under the shard's step budget; budget
    exhaustion stops the tick cleanly with the remainder still queued
    (backpressure), while profile crashes are handled inside
    {!Profile.process} (checkpoint recovery, quarantine after repeated
    failures) and never escape the tick.

    {!snapshot}/{!restore} serialize the durable state of every profile
    plus the shard counters as one sealed image. [restore]
    rebuilds each profile through its crash-recovery path, so a
    snapshot/restore cycle is exactly a simulated process death — the
    fuzzer restarts shards mid-stream this way. *)

type config = {
  queue_capacity : int;  (** max acknowledged-but-unapplied posts *)
  tick_steps : int option;  (** per-{!tick} step budget; [None] unlimited *)
}

type counters = {
  acked : int;  (** posts acknowledged into profile journals *)
  shed : int;  (** offers refused: queue full or profile quarantined *)
  applied : int;  (** posts applied to live feeds *)
}

type t

(** Raises [Invalid_argument] when [queue_capacity < 1] or
    [tick_steps < 1]. *)
val create : config -> t

val config : t -> config

(** [add t profile] registers a profile. Raises [Invalid_argument] on a
    duplicate name. *)
val add : t -> Profile.t -> unit

(** [remove t name] — [true] when the profile existed (its pending posts
    leave the backlog with it). *)
val remove : t -> string -> bool

val find : t -> string -> Profile.t option
val profile_count : t -> int

(** Profiles in name order (the tick order). *)
val profiles : t -> Profile.t list

(** Acknowledged-but-unapplied posts across all profiles. *)
val backlog : t -> int

val counters : t -> counters

(** Sum of {!Profile.crashes} over the shard's profiles. *)
val crash_count : t -> int

val quarantined_count : t -> int

(** [offer t profile post] — acknowledge [post] into [profile]'s journal,
    unless the shard queue is full or the profile is quarantined (then
    the post is shed and [false] returned). [profile] must belong to this
    shard. *)
val offer : t -> Profile.t -> Post.t -> bool

(** [tick ?chaos ?deadline t] processes pending posts across profiles in
    name order under the configured step budget (plus [deadline] seconds
    of wall clock, when given). Returns posts applied. *)
val tick : ?chaos:(unit -> unit) -> ?deadline:float -> t -> int

(** {2 Durable snapshots} *)

(** A sealed image ({!Util.Fs.seal}), kind [mqdp-shard-snapshot v2]:
    shard config and counters, then one escaped {!Profile.blob} line per
    profile in name order. *)
val snapshot : t -> string

(** Rebuild from {!snapshot}; every profile comes back through its
    recovery path. Raises {!Util.Fs.Corrupt} on checksum or structure
    damage, {!Util.Fs.Unsupported_version} on another format version
    (snapshots written before v2 included). *)
val restore : string -> t
