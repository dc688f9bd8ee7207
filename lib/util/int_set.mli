(** A set of ints in one flat open-addressing table.

    Members live in an [int array] probed linearly from a multiplicative
    hash, so {!add} and {!mem} allocate nothing unless {!add} doubles the
    table (past three-quarter load). Every int can be a member, the table's
    empty-slot marker included: that one is kept beside the table as a
    flag. The table never shrinks. *)

type t

(** [create n] — an empty set that holds [n] members without growing:
    a power of two of slots, at least 8 and at least [4 n / 3]. Raises
    [Invalid_argument] when [n < 0]. *)
val create : int -> t

(** Number of members. *)
val length : t -> int

val mem : t -> int -> bool

(** [add t x] makes [x] a member; adding a member again changes nothing. *)
val add : t -> int -> unit

(** [with_sorted t f] is [f a n] where [a.(0) .. a.(n - 1)] are the
    members, ascending, in {!Array_util.with_scratch}'s per-domain array,
    valid only during the call. *)
val with_sorted : t -> (int array -> int -> 'a) -> 'a
