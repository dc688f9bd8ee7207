type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create cmp = { cmp; data = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && h.cmp h.data.(left) h.data.(!smallest) < 0 then
    smallest := left;
  if right < h.size && h.cmp h.data.(right) h.data.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h x =
  if h.size >= Array.length h.data then begin
    let capacity = max 8 (2 * Array.length h.data) in
    let data = Array.make capacity x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let root = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    (* Overwrite the vacated slot with a live element so the popped one
       becomes unreachable — otherwise large picks/closures stay pinned
       by the backing array (a space leak under push/pop churn). *)
    h.data.(h.size) <- h.data.(0);
    sift_down h 0
  end
  else
    (* Popping the last element: drop the backing array entirely; there
       is no live element to overwrite the slot with. *)
    h.data <- [||];
  root

let pop h = if h.size = 0 then None else Some (pop_exn h)

let of_list cmp xs =
  let data = Array.of_list xs in
  let h = { cmp; data; size = Array.length data } in
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done;
  h

let drain h =
  let rec loop acc =
    match pop h with
    | None -> List.rev acc
    | Some x -> loop (x :: acc)
  in
  loop []

let to_list h = Array.to_list (Array.sub h.data 0 h.size)
