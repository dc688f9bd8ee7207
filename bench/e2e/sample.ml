(* Order statistics for the benchmark's timings.

   A percentile is only reported when at least [min_beyond] samples lie
   beyond it: a p99 over 300 samples is the third-largest value, which one
   stall moves at will. Callers that meet an unsupported percentile fail
   the run with the message rather than print a number. *)

let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least p% of the
   samples at or below it. *)
let rank ~p n = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let beyond ~p n = n - rank ~p n

let percentile ~p xs =
  if p <= 0. || p >= 100. then invalid_arg "Sample.percentile: p outside (0, 100)";
  let n = Array.length xs in
  if n = 0 then Error (Printf.sprintf "p%g of no samples" p)
  else if beyond ~p n < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d" p
         min_beyond n (beyond ~p n))
  else Ok (sorted xs).(rank ~p n - 1)

(* Python's statistics.quantiles(xs, n=4) with its default 'exclusive'
   method, so the spreads this program prints are the ones a reader
   recomputes from the raw values. Returns (q1, median, q3). *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Sample.quartiles: fewer than two samples";
  let a = sorted xs in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Spread as the inter-quartile range over the median. *)
let relative_iqr xs =
  let q1, q2, q3 = quartiles xs in
  if Float.equal q2 0. then 0. else (q3 -. q1) /. Float.abs q2

(* Open-loop latency: each request is timed from when it was due, not
   from when it went out, so a stall that delays later sends is charged to
   every request it delayed. [due] holds offsets from [start]. *)
let from_due ~start ~due ~completed =
  if Array.length due <> Array.length completed then
    invalid_arg "Sample.from_due: length mismatch";
  Array.mapi (fun i d -> completed.(i) -. (start +. d)) due
