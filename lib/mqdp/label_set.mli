(** Immutable sets of labels, stored as compact bitsets.

    Label sets are small (the paper's experiments use |L| up to 20) but are
    manipulated in inner loops of every algorithm, so they are backed by an
    immutable array of 63-bit words. Structural equality coincides with set
    equality because trailing zero words are always trimmed. *)

type t

val empty : t
val singleton : Label.t -> t
val of_list : Label.t list -> t
val to_list : t -> Label.t list

val add : Label.t -> t -> t
val remove : Label.t -> t -> t
val mem : Label.t -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val is_empty : t -> bool
val cardinal : t -> int
val subset : t -> t -> bool

(** [disjoint a b] is [is_empty (inter a b)] without allocating. *)
val disjoint : t -> t -> bool

(** [inter_equal a b c] is [equal (inter a b) c], compared word by word
    without building the intersection or a closure. *)
val inter_equal : t -> t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

(** Word-level access, the closure-free alternative to {!iter} for hot
    loops: label [wi * bits_per_word + b] is a member iff bit [b] of
    [word s wi] is set. [word] is unchecked — keep [0 <= wi < word_count s]. *)
val bits_per_word : int

val word_count : t -> int
val word : t -> int -> int

val iter : (Label.t -> unit) -> t -> unit
val fold : (Label.t -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (Label.t -> bool) -> t -> bool
val exists : (Label.t -> bool) -> t -> bool

(** [choose s] is the smallest label in [s]. Raises [Not_found] when empty. *)
val choose : t -> Label.t

(** [max_label s] is the largest label in [s]. Raises [Not_found] when
    empty. *)
val max_label : t -> Label.t

val pp : Format.formatter -> t -> unit
