(** Binary-search utilities over sorted arrays.

    All functions expect [xs] sorted ascending by the projection [key]. *)

(** [lower_bound ~key xs x] is the smallest index [i] with
    [key xs.(i) >= x], or [Array.length xs] when none. *)
val lower_bound : key:('a -> float) -> 'a array -> float -> int

(** [upper_bound ~key xs x] is the smallest index [i] with
    [key xs.(i) > x], or [Array.length xs] when none. *)
val upper_bound : key:('a -> float) -> 'a array -> float -> int

(** [count_in_range ~key xs ~lo ~hi] is the number of elements with
    [lo <= key e <= hi]. *)
val count_in_range : key:('a -> float) -> 'a array -> lo:float -> hi:float -> int

(** [is_sorted ~cmp xs] checks [cmp xs.(i) xs.(i+1) <= 0] for all i. *)
val is_sorted : cmp:('a -> 'a -> int) -> 'a array -> bool

(** [sort_ints_prefix a len] sorts [a.(0) .. a.(len - 1)] ascending, in
    place, allocating nothing. (Stdlib [Array.sort] allocates ~4 words per
    element: its heapsort raises [Bottom of int] to end each trickle-down,
    which is measurable garbage on the zero-alloc solve path.) *)
val sort_ints_prefix : int array -> int -> unit

(** [sorted_ints_of_prefix a len] is the distinct elements of
    [a.(0) .. a.(len - 1)], ascending. [a] is not mutated. The
    list-materialization step shared by the solve kernels: a pick buffer
    in, a canonical cover out — allocation is exactly one [len] copy plus
    the result cells, with no [List.sort_uniq] intermediates. *)
val sorted_ints_of_prefix : int array -> int -> int list

(** [sorted_keys tbl] is the keys of [tbl] as an ascending array (one
    entry per binding, so distinct when [tbl] was filled with
    [Hashtbl.replace]). Allocates the array and nothing else. *)
val sorted_keys : (int, 'a) Hashtbl.t -> int array

(** [with_scratch n f] is [f a] for an int array [a] of length at least
    [n] with unspecified contents: this domain's reusable scratch, so a
    steady stream of calls allocates nothing once the scratch has grown.
    [a] belongs to [f] only until it returns. A call nested inside
    another's [f] gets a fresh array; an exception from [f] releases the
    scratch; a scratch grown past 2{^17} elements is dropped after use. *)
val with_scratch : int -> (int array -> 'a) -> 'a

(** [with_sorted_keys tbl f] is [f a n] where [a.(0) .. a.(n - 1)] are
    the keys of [tbl], ascending, in {!with_scratch}'s array: {!sorted_keys}
    without allocating the array. *)
val with_sorted_keys : (int, 'a) Hashtbl.t -> (int array -> int -> 'b) -> 'b
