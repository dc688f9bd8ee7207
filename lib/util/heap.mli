(** Imperative binary heap.

    The heap is a min-heap with respect to the comparison function supplied
    at creation time; pass a reversed comparison to obtain a max-heap. All
    operations are the textbook complexities: [push] and [pop] are
    O(log n), [peek] is O(1). *)

type 'a t

(** [create cmp] is an empty heap ordered by [cmp]. *)
val create : ('a -> 'a -> int) -> 'a t

(** [of_list cmp xs] heapifies [xs] in O(n). *)
val of_list : ('a -> 'a -> int) -> 'a list -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** [peek h] is the minimum element, or [None] when empty. *)
val peek : 'a t -> 'a option

(** [pop h] removes and returns the minimum element, or [None] when empty.
    The vacated backing-array slot is cleared (overwritten with a live
    element, or the array dropped when the heap empties), so a popped
    element does not stay reachable through the heap. *)
val pop : 'a t -> 'a option

(** [pop_exn h] is [pop] without the option: it removes and returns the
    minimum element, allocating nothing, and raises [Invalid_argument]
    when empty. *)
val pop_exn : 'a t -> 'a

(** [drain h] pops every element, returning them in ascending order. *)
val drain : 'a t -> 'a list

(** [to_list h] is the heap contents in unspecified order (heap unchanged). *)
val to_list : 'a t -> 'a list
