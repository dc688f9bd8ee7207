(** One serving tenant: a named subscription (label set) owning a
    {!Feed}-fronted {!Online} engine, with write-ahead acknowledgment,
    periodic checkpoints, and crash recovery that never loses an
    acknowledged post.

    The durability contract is the heart of the serving layer:

    - {!offer} {e acknowledges} a post by appending it to the profile's
      pending journal — a plain queue that no crash path ever touches;
    - {!process} applies pending posts to the live feed one at a time.
      A caller-supplied [chaos] hook runs {e before} each application, so
      an injected crash can only fire between posts — the feed is never
      torn mid-push;
    - any exception out of the application step counts as a {e crash}:
      the live feed is discarded, the last checkpoint is restored, and
      the journal of posts applied since that checkpoint is replayed
      (chaos-free). {!Feed}'s bit-identical replay guarantee makes the
      regenerated emissions — sequence numbers included — exactly the
      ones the dead incarnation produced, so nothing already reported is
      re-reported and nothing unreported is lost;
    - after [max_restarts] recoveries the profile is {e quarantined}:
      it stops processing (pending posts keep accumulating and remain
      durable) until {!revive}.

    Emissions carry monotone per-profile sequence numbers. {!take_report}
    hands over everything unreported (ascending) and advances the
    reported watermark; recovery uses the watermark to drop emissions the
    client already saw.

    {!blob}/{!of_blob} serialize the durable state only — checkpoint,
    journal, pending queue, watermarks, counters. [of_blob] rebuilds the
    live feed through the same recovery path a crash uses, which is what
    lets a shard restart simulate (and survive) process death. *)

type config = {
  lambda : float;
  mode : Online.mode;
  feed : Feed.config;
  window : bool;  (** mirror the stream into a {!Window_index} (QUERY) *)
  checkpoint_every : int;
      (** refresh the checkpoint after this many applied posts;
          0 = only on {!checkpoint_now}/{!drain} *)
  max_restarts : int;  (** recoveries before quarantine *)
}

(** λ 60, [Delayed {tau = 30; plus = false}], default feed config, window
    on, checkpoint every 64 posts, 3 restarts. *)
val default_config : config

type t

(** [create ~name ~subscription config] — a fresh, empty profile.
    Raises [Invalid_argument] on an empty name, an empty subscription,
    a negative [checkpoint_every]/[max_restarts], or invalid engine
    parameters. *)
val create : name:string -> subscription:Label_set.t -> config -> t

val name : t -> string
val subscription : t -> Label_set.t
val config : t -> config

(** Admission-degraded profiles (forced [Instant], no window) are marked
    so reports and stats can tell them apart. *)
val degraded : t -> bool

val mark_degraded : t -> unit
val quarantined : t -> bool

(** Recoveries performed so far (0 after {!revive}). *)
val crashes : t -> int

(** Posts acknowledged but not yet applied. *)
val pending : t -> int

(** Emissions generated but not yet handed to {!take_report}. *)
val unreported : t -> int

(** Total posts acknowledged ({!offer}) over the profile's lifetime. *)
val acked : t -> int

(** Total posts applied to the feed (≤ {!acked}). *)
val applied : t -> int

(** Posts consumed by a [Raise]-policy rejection (counted, not retried). *)
val rejected : t -> int

(** [offer t post] acknowledges [post]: once this returns, no crash or
    restart may lose the post's emissions. Raises [Invalid_argument] when
    the profile is quarantined — callers gate on {!quarantined}. *)
val offer : t -> Post.t -> unit

(** [process ?chaos ?budget t] applies pending posts in order. [chaos]
    runs before each application; any exception it (or the feed) raises
    triggers checkpoint recovery, after which the same post is re-applied
    chaos-free — guaranteed progress. {!Util.Budget.step} is charged per
    post; {!Util.Budget.Exhausted} stops cleanly with the remainder still
    pending (backpressure, not failure) and does not count as a crash.
    Returns the number of posts applied. A profile that hits its restart
    limit mid-call quarantines and returns early. *)
val process : ?chaos:(unit -> unit) -> ?budget:Util.Budget.t -> t -> int

(** [take_report t] — every unreported emission as [(seq, emission)]
    pairs, ascending by [seq]; advances the reported watermark and clears
    the buffer. *)
val take_report : t -> (int * Online.emission) list

(** [drain t] — {!Feed.finish} the live feed (draining pending deadlines
    into the report buffer) and refresh the checkpoint. The refresh is
    mandatory: finish emissions are not regenerable by journal replay, so
    they must be baked into the checkpoint to stay durable. *)
val drain : t -> unit

(** Refresh the checkpoint to the current live state (journal resets). *)
val checkpoint_now : t -> unit

(** [revive t] — un-quarantine: rebuild the live feed from the
    checkpoint + journal (the recovery path), zero the crash counter.
    No-op when not quarantined. *)
val revive : t -> unit

(** The live window, when the profile was created with [window = true]
    (and not degraded). *)
val window : t -> Window_index.t option

(** The per-profile circuit breaker, shared across every {!Supervisor}
    solve issued on this profile's behalf. *)
val breaker : t -> Supervisor.Breaker.t

(** {2 Durable serialization} *)

(** The profile's durable state as a single string: line-oriented, in
    {!Feed}'s field codec, sealed by the shard snapshot around it. λ,
    mode, feed config and the window flag live only in the embedded feed
    checkpoint. *)
val blob : t -> string

(** Rebuild from {!blob} via the recovery path. Raises
    {!Util.Fs.Corrupt} on a damaged blob, {!Util.Fs.Unsupported_version}
    on an embedded checkpoint of another format. *)
val of_blob : string -> t
