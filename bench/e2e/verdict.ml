(* The comparison rule for two sets of runs of the same benchmark, one on
   the parent commit and one on a change, paired run by run:

   - better: the change wins at least nine tenths of the pairs (ties
     count for neither side) and the medians differ by more than the
     parent's inter-quartile range;
   - worse: the same with the sides swapped, or the change's median is
     worse than the parent's by more than the metric's bound;
   - unresolved: neither, while the parent's own spread (IQR over median)
     is wider than the bound, unless every change run beats every parent
     run;
   - unchanged: otherwise. *)

type direction = Lower | Higher
type t = Better | Unchanged | Worse | Unresolved

let to_string = function
  | Better -> "better"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [improves d ~from x]: is [x] strictly better than [from]? *)
let improves d ~from x =
  match d with Lower -> x < from | Higher -> x > from

let judge ~better ~bound ~parent ~change =
  let n = min (Array.length parent) (Array.length change) in
  if n < 2 then invalid_arg "Verdict.judge: need at least two pairs";
  let parent = Array.sub parent 0 n and change = Array.sub change 0 n in
  let wins side other =
    let w = ref 0 in
    for i = 0 to n - 1 do
      if improves better ~from:other.(i) side.(i) then incr w
    done;
    !w
  in
  let needed = int_of_float (Float.ceil (0.9 *. float_of_int n)) in
  let q1, m_parent, q3 = Sample.quartiles parent in
  let _, m_change, _ = Sample.quartiles change in
  let iqr = q3 -. q1 in
  let gap = Float.abs (m_change -. m_parent) in
  let worse_share =
    if Float.equal m_parent 0. then 0.
    else
      match better with
      | Lower -> (m_change -. m_parent) /. Float.abs m_parent
      | Higher -> (m_parent -. m_change) /. Float.abs m_parent
  in
  let all_better =
    Array.for_all
      (fun c -> Array.for_all (fun p -> improves better ~from:p c) parent)
      change
  in
  if wins change parent >= needed && gap > iqr then Better
  else if (wins parent change >= needed && gap > iqr) || worse_share > bound then Worse
  else if Sample.relative_iqr parent > bound && not all_better then Unresolved
  else Unchanged
