(* [x : float]: the [.mli]'s type is not seen while this file compiles,
   so unannotated the comparisons below would be polymorphic calls. *)
let lower_bound ~key xs (x : float) =
  let rec loop lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if key xs.(mid) >= x then loop lo mid else loop (mid + 1) hi
    end
  in
  loop 0 (Array.length xs)

let upper_bound ~key xs (x : float) =
  let rec loop lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if key xs.(mid) > x then loop lo mid else loop (mid + 1) hi
    end
  in
  loop 0 (Array.length xs)

let count_in_range ~key xs ~lo ~hi = upper_bound ~key xs hi - lower_bound ~key xs lo

let is_sorted ~cmp xs =
  let n = Array.length xs in
  let rec loop i = i >= n - 1 || (cmp xs.(i) xs.(i + 1) <= 0 && loop (i + 1)) in
  loop 0

(* Sift [a.(root)] down within [a.(0 .. hi-1)] under the max-heap order.
   Tail recursion, no closure, no allocation. The [int array] annotation
   is what makes each [<] an inline integer comparison: left polymorphic,
   every comparison would be a call into the runtime's generic compare. *)
let rec heap_sift (a : int array) hi root =
  let child = (2 * root) + 1 in
  if child < hi then begin
    let child =
      if child + 1 < hi && Array.unsafe_get a child < Array.unsafe_get a (child + 1)
      then child + 1
      else child
    in
    let r = Array.unsafe_get a root and c = Array.unsafe_get a child in
    if r < c then begin
      Array.unsafe_set a root c;
      Array.unsafe_set a child r;
      heap_sift a hi child
    end
  end

let sort_ints_prefix (a : int array) len =
  if len < 0 || len > Array.length a then
    invalid_arg "Array_util.sort_ints_prefix: bad prefix length";
  for i = (len / 2) - 1 downto 0 do
    heap_sift a len i
  done;
  for i = len - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(i);
    a.(i) <- t;
    heap_sift a i 0
  done

let sorted_ints_of_prefix (a : int array) len =
  if len < 0 || len > Array.length a then
    invalid_arg "Array_util.sorted_ints_of_prefix: bad prefix length";
  if len = 0 then []
  else begin
    let copy = Array.sub a 0 len in
    (* In-place heapsort: the whole call allocates the copy and the result
       cells, nothing else. (Stdlib [Array.sort] would cost ~4 extra words
       per element — its trickle-down signals termination by raising a
       [Bottom of int] exception.) *)
    sort_ints_prefix copy len;
    let acc = ref [] in
    for i = len - 1 downto 0 do
      let x = copy.(i) in
      match !acc with
      | y :: _ when y = x -> ()
      | _ -> acc := x :: !acc
    done;
    !acc
  end

let fill_keys (a : int array) tbl = Hashtbl.fold (fun k _ i -> a.(i) <- k; i + 1) tbl 0

let sorted_keys tbl =
  let a = Array.make (Hashtbl.length tbl) 0 in
  let n = fill_keys a tbl in
  sort_ints_prefix a n;
  a

(* --- Per-domain int scratch, on the pattern of [Fs.seal]'s buffer: each
   domain reuses one array, a nested call (the scratch busy) gets a fresh
   one, an exception releases it, and a scratch grown past
   [scratch_cap] elements is dropped after use, so a domain retains at
   most that much. --- *)

type scratch = { mutable ints : int array; mutable busy : bool }

let scratch_cap = 1 lsl 17
let scratch = Domain.DLS.new_key (fun () -> { ints = Array.make 256 0; busy = false })

let release s =
  if Array.length s.ints > scratch_cap then s.ints <- Array.make 256 0;
  s.busy <- false

let with_scratch n f =
  let s = Domain.DLS.get scratch in
  if s.busy then f (Array.make n 0)
  else begin
    if Array.length s.ints < n then s.ints <- Array.make (max n (2 * Array.length s.ints)) 0;
    s.busy <- true;
    match f s.ints with
    | r ->
      release s;
      r
    | exception e ->
      release s;
      raise e
  end

let with_sorted_keys tbl f =
  with_scratch (Hashtbl.length tbl) (fun a ->
      let n = fill_keys a tbl in
      sort_ints_prefix a n;
      f a n)
