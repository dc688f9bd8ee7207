let lower_bound ~key xs x =
  let rec loop lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if key xs.(mid) >= x then loop lo mid else loop (mid + 1) hi
    end
  in
  loop 0 (Array.length xs)

let upper_bound ~key xs x =
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
   Tail recursion, no closure, no allocation. *)
let rec heap_sift a hi root =
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

let sort_ints_prefix a len =
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

let sorted_ints_of_prefix a len =
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

let sorted_keys tbl =
  let a = Array.make (Hashtbl.length tbl) 0 in
  let n = Hashtbl.fold (fun k _ i -> a.(i) <- k; i + 1) tbl 0 in
  sort_ints_prefix a n;
  a
