(* Open addressing with linear probing over a power-of-two [int array].
   A slot holding [free] is empty; [free] itself, when a member, is the
   flag [has_free]. The table doubles before an insert would take it
   past three-quarter load, so a probe always ends at a free slot, and
   a member costs 1.33 to 2.67 words.

   The [int] annotations keep every comparison an inline integer
   compare: the .mli's types are not seen while this file compiles. *)

type t = {
  mutable slots : int array;
  mutable shift : int;  (* 63 - log2 (Array.length slots) *)
  mutable count : int;  (* members stored in [slots] *)
  mutable has_free : bool;
}

let free = min_int

(* Fibonacci hashing: the top bits of the product, an index into the
   table. Any odd multiplier works; this one is 2^61 / golden ratio. *)
let multiplier = 0x13C6EF372FE94F83

let[@inline] home t (x : int) = (x * multiplier) lsr t.shift

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let table cap = (Array.make cap free, 63 - log2 cap)

let create n =
  if n < 0 then invalid_arg "Int_set.create: negative size";
  let cap = ref 8 in
  while 3 * !cap < 4 * n do
    cap := 2 * !cap
  done;
  let slots, shift = table !cap in
  { slots; shift; count = 0; has_free = false }

let length t = t.count + Bool.to_int t.has_free

(* The slot holding [x], or the free slot that ends its probe. *)
let rec find (slots : int array) mask (x : int) i =
  let y = Array.unsafe_get slots i in
  if y = x || y = free then i else find slots mask x ((i + 1) land mask)

let mem t (x : int) =
  if x = free then t.has_free
  else
    let slots = t.slots in
    Array.unsafe_get slots (find slots (Array.length slots - 1) x (home t x)) = x

let grow t =
  let old = t.slots in
  let slots, shift = table (2 * Array.length old) in
  t.slots <- slots;
  t.shift <- shift;
  let mask = Array.length slots - 1 in
  for i = 0 to Array.length old - 1 do
    let x = Array.unsafe_get old i in
    if x <> free then Array.unsafe_set slots (find slots mask x (home t x)) x
  done

let add t (x : int) =
  if x = free then t.has_free <- true
  else begin
    let i = find t.slots (Array.length t.slots - 1) x (home t x) in
    if Array.unsafe_get t.slots i <> x then begin
      if 4 * (t.count + 1) > 3 * Array.length t.slots then begin
        grow t;
        let slots = t.slots in
        Array.unsafe_set slots (find slots (Array.length slots - 1) x (home t x)) x
      end
      else Array.unsafe_set t.slots i x;
      t.count <- t.count + 1
    end
  end

(* The members into [a.(0 .. length t - 1)], unsorted; [a] is at least
   that long. *)
let fill t (a : int array) =
  let k = ref 0 in
  if t.has_free then begin
    a.(0) <- free;
    k := 1
  end;
  for i = 0 to Array.length t.slots - 1 do
    let x = Array.unsafe_get t.slots i in
    if x <> free then begin
      Array.unsafe_set a !k x;
      incr k
    end
  done;
  !k

let with_sorted t f =
  Array_util.with_scratch (length t) (fun a ->
      let n = fill t a in
      Array_util.sort_ints_prefix a n;
      f a n)
