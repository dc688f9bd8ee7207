type selection = [ `Linear_scan | `Bucket_queue ]

(* All pair geometry lives behind one of two backends: a compiled
   (immutable) Pair_index, or a live Window_index over the current sliding
   window. Either way a post's gain is the number of still-uncovered pairs
   in its covered ranges, and selecting a post runs the backend's fused
   apply_pick kernel — flip flat covered state in ascending id order,
   decrement each newly-covered pair's coverers' gains, record the touched
   positions once each. The selection loops are backend-agnostic.

   The selection loop is allocation-free for every variant's own state:
   picks land in a preallocated buffer, the salvage closure is bound once
   per solve, and the bucket queue (the default selector) pops bare ints.
   Both selectors produce bit-identical covers: each one resolves a gain
   tie toward the smallest position, which is what the linear re-scan's
   first-strict-maximum does. *)
type geometry =
  | Compiled of {
      index : Pair_index.t;
      covered : Bytes.t;  (* one byte per pair id *)
    }
  | Windowed of {
      window : Window_index.t;
      wsolver : Window_index.solver;  (* began before the state was built *)
    }

type state = {
  geometry : geometry;
  n : int;  (* candidate count: instance size or window size *)
  gain : int array;  (* per position: # uncovered pairs this post covers *)
  dirty : Bytes.t;  (* apply_pick dedup scratch; all-zero between picks *)
  touched : int array;  (* positions whose gain the current pick changed *)
  picks : int array;  (* committed picks in pick order; entries distinct *)
  mutable n_picks : int;
  queue : Util.Bucket_queue.t;  (* mirrors { k | gain k > 0 }, prio = gain *)
}

let state_of_index ?pool ?(budget = Util.Budget.unlimited) index =
  let n = Instance.size (Pair_index.instance index) in
  let gain = Array.make n 0 in
  let init k =
    Interrupt.step budget;
    gain.(k) <- Pair_index.covered_count index k
  in
  (match pool with
  | None ->
    for k = 0 to n - 1 do
      init k
    done
  | Some pool ->
    Util.Pool.parallel_iter_chunks pool ~stop:(Interrupt.stop budget) n
      ~f:(fun lo hi ->
        for k = lo to hi - 1 do
          init k
        done));
  Interrupt.check budget;
  (* Gains only decrease from here on, so the queue built over the initial
     gains is the monotone workload Bucket_queue is tuned for; its size
     never exceeds the initial candidate count by construction. *)
  let max_gain = Array.fold_left max 0 gain in
  let queue = Util.Bucket_queue.create ~capacity:n ~max_prio:max_gain in
  for k = 0 to n - 1 do
    if gain.(k) > 0 then Util.Bucket_queue.push queue ~key:k ~prio:gain.(k)
  done;
  {
    geometry =
      Compiled { index; covered = Bytes.make (Pair_index.total_pairs index) '\000' };
    n;
    gain;
    dirty = Bytes.make n '\000';
    touched = Array.make n 0;
    picks = Array.make n 0;
    n_picks = 0;
    queue;
  }

let create_state ?pool ?budget instance lambda =
  state_of_index ?pool ?budget
    (Pair_index.build ?pool ?budget ~coverers:true instance lambda)

(* Reusable scratch for solving sliding windows: the off-heap geometry
   snapshot plus the OCaml-side selection buffers, all grown by doubling
   and kept across solves, so the steady state (window size and max gain
   stable) allocates only the per-solve state record. *)
type window_solver = {
  wsolver : Window_index.solver;
  mutable wgain : int array;
  mutable wdirty : Bytes.t;
  mutable wtouched : int array;
  mutable wpicks : int array;
  mutable wqueue : Util.Bucket_queue.t;
  mutable wmax_prio : int;  (* the queue's construction bound *)
}

let window_solver () =
  {
    wsolver = Window_index.solver ();
    wgain = [||];
    wdirty = Bytes.empty;
    wtouched = [||];
    wpicks = [||];
    wqueue = Util.Bucket_queue.create ~capacity:0 ~max_prio:0;
    wmax_prio = 0;
  }

let state_of_window ?(marked = false) ?solver ?(budget = Util.Budget.unlimited)
    window =
  let sv =
    match solver with
    | Some sv -> sv
    | None -> window_solver ()
  in
  let n = Window_index.size window in
  (* One begin_solve touches every live incidence once — charge like a
     linear-scan round rather than per post. *)
  Interrupt.step ~cost:(max 1 n) budget;
  if Array.length sv.wgain < n then begin
    let c = ref (max 16 (Array.length sv.wgain)) in
    while !c < n do
      c := !c * 2
    done;
    sv.wgain <- Array.make !c 0;
    sv.wdirty <- Bytes.make !c '\000';
    sv.wtouched <- Array.make !c 0;
    sv.wpicks <- Array.make !c 0
  end;
  Window_index.begin_solve window sv.wsolver ~marked ~gain:sv.wgain;
  let max_gain = ref 0 in
  for k = 0 to n - 1 do
    if sv.wgain.(k) > !max_gain then max_gain := sv.wgain.(k)
  done;
  if Util.Bucket_queue.capacity sv.wqueue < n || sv.wmax_prio < !max_gain then begin
    let mp = ref (max 16 sv.wmax_prio) in
    while !mp < !max_gain do
      mp := !mp * 2
    done;
    sv.wmax_prio <- !mp;
    sv.wqueue <-
      Util.Bucket_queue.create ~capacity:(Array.length sv.wgain) ~max_prio:!mp
  end
  else Util.Bucket_queue.clear sv.wqueue;
  for k = 0 to n - 1 do
    if sv.wgain.(k) > 0 then Util.Bucket_queue.push sv.wqueue ~key:k ~prio:sv.wgain.(k)
  done;
  Interrupt.check budget;
  {
    geometry = Windowed { window; wsolver = sv.wsolver };
    n;
    gain = sv.wgain;
    dirty = sv.wdirty;
    touched = sv.wtouched;
    picks = sv.wpicks;
    n_picks = 0;
    queue = sv.wqueue;
  }

(* Registry handles are module-level: interning is a hash lookup under a
   mutex, far too costly for once-per-pick bumping. *)
let m_picks = Util.Telemetry.counter "greedy.picks"
let m_marks = Util.Telemetry.counter "greedy.marks"
let m_queue_ops = Util.Telemetry.counter "greedy.queue_ops"
let m_queue_peak = Util.Telemetry.gauge "greedy.queue_peak"

(* Select post [k]: mark its pairs, decrement coverer gains, and keep the
   bucket queue mirroring the positive gains. Returns nothing the solvers
   need beyond the side effects — the per-pick telemetry is accumulated
   locally here and added once. *)
let select state k =
  let touched =
    match state.geometry with
    | Compiled { index; covered } ->
      Pair_index.apply_pick index ~covered ~gain:state.gain ~dirty:state.dirty
        ~touched:state.touched k
    | Windowed { window; wsolver } ->
      Window_index.apply_pick window wsolver ~gain:state.gain ~dirty:state.dirty
        ~touched:state.touched k
  in
  for i = 0 to touched - 1 do
    let k' = state.touched.(i) in
    (* A position absent from the queue already had gain 0; gains never
       increase, so [update] can only move down or remove — never insert. *)
    Util.Bucket_queue.update state.queue ~key:k' ~prio:state.gain.(k')
  done;
  Util.Telemetry.add m_queue_ops touched

(* A pick's gain is by construction the number of pairs [select] is about
   to newly cover, so the marks counter costs one add per pick instead of
   one increment per pair in the hot loop. *)
let commit_pick state k =
  Util.Telemetry.incr m_picks;
  Util.Telemetry.add m_marks state.gain.(k);
  state.picks.(state.n_picks) <- k;
  state.n_picks <- state.n_picks + 1

(* Picks are distinct by construction (a committed pick's gain drops to 0
   and gains never rise), so this is one copy + in-place sort. *)
let picks_so_far state = Util.Array_util.sorted_ints_of_prefix state.picks state.n_picks

(* Stepping interface for the streaming greedy: pop the canonical best
   candidate (max gain, smallest position; -1 when no positive gain is
   left) without committing, then [commit] it once the caller has recorded
   the emission. *)
let pop_best state =
  Util.Telemetry.incr m_queue_ops;
  Util.Bucket_queue.pop_max state.queue

let commit state k =
  commit_pick state k;
  select state k

(* First strict maximum = smallest position among the tied maxima: the
   canonical tie rule the bucket queue reproduces. *)
let argmax_gain state =
  let gain = state.gain in
  let best = ref (-1) and best_gain = ref 0 in
  for k = 0 to state.n - 1 do
    let g = Array.unsafe_get gain k in
    if g > !best_gain then begin
      best := k;
      best_gain := g
    end
  done;
  !best

let solve_linear budget state some_partial =
  let n = state.n in
  let rec loop () =
    (* Each round re-scans every gain, so it costs n steps. The salvage is
       the picks so far — a sound prefix of a cover. *)
    Interrupt.step ~cost:(max 1 n) ?partial:some_partial budget;
    let k = argmax_gain state in
    if k >= 0 then begin
      commit_pick state k;
      select state k;
      loop ()
    end
  in
  loop ()

let solve_bucket budget state some_partial =
  let q = state.queue in
  (* The queue never grows after construction (gains only decrease), so
     its peak over the whole solve is its size right here. *)
  Util.Telemetry.set m_queue_peak (Util.Bucket_queue.length q);
  let rec loop () =
    Interrupt.step ?partial:some_partial budget;
    Util.Telemetry.incr m_queue_ops;
    let k = Util.Bucket_queue.pop_max q in
    if k >= 0 then begin
      commit_pick state k;
      select state k;
      loop ()
    end
  in
  loop ()

let run ?(budget = Util.Budget.unlimited) ?(seed = []) selection state =
  (* Seeding: mark everything the seed posts cover before the greedy loop
     and carry them in the result — the final set is then a cover of the
     full pair universe whatever the seed was. A seed post's own gain drops
     to 0, so the loop never re-picks it. Seeds bypass [commit_pick]: they
     are not greedy picks, so they don't count in the pick telemetry. *)
  let seed = List.sort_uniq Int.compare seed in
  List.iter
    (fun k ->
      state.picks.(state.n_picks) <- k;
      state.n_picks <- state.n_picks + 1;
      select state k)
    seed;
  let some_partial = Some (fun () -> Interrupt.Partial_cover (picks_so_far state)) in
  (match selection with
  | `Linear_scan -> solve_linear budget state some_partial
  | `Bucket_queue -> solve_bucket budget state some_partial);
  picks_so_far state

let solve_indexed ?(selection = `Bucket_queue) ?pool ?budget ?seed index =
  run ?budget ?seed selection (state_of_index ?pool ?budget index)

let solve ?(selection = `Bucket_queue) ?pool ?budget ?seed instance lambda =
  run ?budget ?seed selection (create_state ?pool ?budget instance lambda)

let solve_window ?(selection = `Bucket_queue) ?marked ?solver ?budget ?seed window =
  run ?budget ?seed selection (state_of_window ?marked ?solver ?budget window)
