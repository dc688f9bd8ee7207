(* Invariant: the last word of [t] is non-zero (trailing zero words are
   trimmed), so structural equality is set equality. All words are
   non-negative: only 62 of the 63 native int bits are used. *)

type t = int array

let bits_per_word = 62

let empty = [||]

let trim words =
  let n = ref (Array.length words) in
  while !n > 0 && words.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length words then words else Array.sub words 0 !n

let singleton label =
  if label < 0 then invalid_arg "Label_set.singleton: negative label";
  let word = label / bits_per_word and bit = label mod bits_per_word in
  let words = Array.make (word + 1) 0 in
  words.(word) <- 1 lsl bit;
  words

let mem label s =
  let word = label / bits_per_word and bit = label mod bits_per_word in
  word < Array.length s && s.(word) land (1 lsl bit) <> 0

let add label s =
  if label < 0 then invalid_arg "Label_set.add: negative label";
  if mem label s then s
  else begin
    let word = label / bits_per_word and bit = label mod bits_per_word in
    let len = max (Array.length s) (word + 1) in
    let words = Array.make len 0 in
    Array.blit s 0 words 0 (Array.length s);
    words.(word) <- words.(word) lor (1 lsl bit);
    words
  end

let remove label s =
  if not (mem label s) then s
  else begin
    let word = label / bits_per_word and bit = label mod bits_per_word in
    let words = Array.copy s in
    words.(word) <- words.(word) land lnot (1 lsl bit);
    trim words
  end

let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let len = max la lb in
    let words =
      Array.init len (fun i ->
          let wa = if i < la then a.(i) else 0
          and wb = if i < lb then b.(i) else 0 in
          wa lor wb)
    in
    words
  end

let inter a b =
  let len = min (Array.length a) (Array.length b) in
  trim (Array.init len (fun i -> a.(i) land b.(i)))

let diff a b =
  let la = Array.length a and lb = Array.length b in
  trim
    (Array.init la (fun i ->
         let wb = if i < lb then b.(i) else 0 in
         a.(i) land lnot wb))

let is_empty s = Array.length s = 0

let popcount word =
  let rec loop w acc = if w = 0 then acc else loop (w lsr 1) (acc + (w land 1)) in
  loop word 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

(* The last word of [a] is non-zero, so [a] has no more words than [b]
   when it is a subset. A loop rather than [Array.iteri]: the fan-out asks
   this once per delivery, and must not allocate a closure to do it. *)
let subset a b =
  let la = Array.length a in
  la <= Array.length b
  &&
  let i = ref 0 in
  while !i < la && a.(!i) land lnot b.(!i) = 0 do
    incr i
  done;
  !i = la

let disjoint a b =
  let len = min (Array.length a) (Array.length b) in
  let rec loop i = i >= len || (a.(i) land b.(i) = 0 && loop (i + 1)) in
  loop 0

(* [c] is trimmed, so it has no more words than [a ∩ b] has before
   trimming; past its end, [a ∩ b] must be zero. A loop, as in [subset]:
   the fan-out asks this once per delivery. *)
let inter_equal a b c =
  let len = min (Array.length a) (Array.length b) and lc = Array.length c in
  lc <= len
  &&
  let i = ref 0 in
  while
    !i < len && a.(!i) land b.(!i) = if !i < lc then Array.unsafe_get c !i else 0
  do
    incr i
  done;
  !i = len

(* Trailing zero words are trimmed, so word arrays of equal sets have
   equal lengths and word-wise equality is set equality. The comparator
   orders by length first and then word-wise — the same order the
   polymorphic compare produced on these blocks, but monomorphic on int,
   so no runtime tag dispatch in callers that sort sets. *)
let equal (a : t) (b : t) =
  let la = Array.length a in
  la = Array.length b
  &&
  let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let c = Int.compare la lb in
  if c <> 0 then c
  else begin
    let rec go i =
      if i >= la then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

(* Word-level access for closure-free iteration: Window_index.push walks
   the bitset inline because an [iter] closure per arrival is heap traffic
   on the steady-state hot path. *)
let word_count (s : t) = Array.length s
let[@inline] word (s : t) i = Array.unsafe_get s i

let iter f s =
  Array.iteri
    (fun wi word ->
      let base = wi * bits_per_word in
      for bit = 0 to bits_per_word - 1 do
        if word land (1 lsl bit) <> 0 then f (base + bit)
      done)
    s

let fold f s init =
  let acc = ref init in
  iter (fun label -> acc := f label !acc) s;
  !acc

let to_list s = List.rev (fold (fun label acc -> label :: acc) s [])

let of_list labels = List.fold_left (fun s label -> add label s) empty labels

let for_all p s = fold (fun label acc -> acc && p label) s true
let exists p s = fold (fun label acc -> acc || p label) s false

let choose s =
  if is_empty s then raise Not_found;
  let result = ref (-1) in
  (try
     iter
       (fun label ->
         result := label;
         raise Exit)
       s
   with Exit -> ());
  !result

let max_label s =
  if is_empty s then raise Not_found;
  fold (fun label acc -> max label acc) s (-1)

let pp fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       Label.pp)
    (to_list s)
