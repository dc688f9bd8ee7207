type mode =
  | Delayed of { tau : float; plus : bool }
  | Instant

type emission = {
  post : Post.t;
  emit_time : float;
}

type label_state = {
  mutable pending : Post.t list;  (* uncovered arrivals, newest first *)
  mutable oldest : Post.t option;
  mutable last_out : Post.t option;  (* latest post output for this label *)
  mutable deadline : float;  (* infinity when nothing pending *)
}

(* The latest arrival's value, unboxed: an all-float record is stored
   flat, so a push writes the float in place instead of allocating a
   [Some v]. [arrived] tells whether [last] holds one yet. *)
type arrival = { mutable last : float }

type t = {
  lambda : float;
  lam : Coverage.lambda;  (* [Fixed lambda], for the shared geometry helpers *)
  mode : mode;
  states : (Label.t, label_state) Hashtbl.t;
  mutable heap : (float * Label.t) Util.Heap.t;
  emitted : Util.Int_set.t;  (* distinct emitted post ids *)
  arrival : arrival;
  mutable arrived : bool;
  degraded : (Label.t, unit) Hashtbl.t;  (* labels demoted to instant handling *)
  mutable live_pending : int;  (* labels with a non-empty pending list *)
  window : Window_index.t option;  (* mirrored sliding window, when attached *)
}

type label_snapshot = {
  snap_label : Label.t;
  snap_pending : Post.t list;  (* stored order: newest first *)
  snap_last_out : Post.t option;
}

type snapshot = {
  snap_lambda : float;
  snap_mode : mode;
  snap_last_time : float option;
  snap_emitted : int array;  (* ascending *)
  snap_degraded : Label.t array;  (* ascending *)
  snap_labels : label_snapshot list;  (* ascending by label *)
}

(* Deterministic heap order: ties on the deadline break by label id, so
   firing order does not depend on heap history (pushes vs compaction). *)
let heap_cmp (da, a) (db, b) =
  let c = Float.compare da db in
  if c <> 0 then c else Int.compare a b

(* [emitted]: how many emitted ids to size the set for. *)
let make ~emitted ?window ~lambda mode =
  if lambda < 0. then invalid_arg "Online.create: negative lambda";
  (match mode with
  | Delayed { tau; _ } when tau < 0. -> invalid_arg "Online.create: negative tau"
  | Delayed _ | Instant -> ());
  (match window with
  | Some w -> (
    match Window_index.lambda w with
    | Coverage.Fixed l when l = lambda -> ()
    | Coverage.Fixed _ | Coverage.Per_post_label _ ->
      invalid_arg "Online.create: window lambda mismatch")
  | None -> ());
  {
    lambda;
    lam = Coverage.Fixed lambda;
    mode;
    states = Hashtbl.create 16;
    heap = Util.Heap.create heap_cmp;
    emitted = Util.Int_set.create emitted;
    arrival = { last = neg_infinity };
    arrived = false;
    degraded = Hashtbl.create 4;
    live_pending = 0;
    window;
  }

let create ?window ~lambda mode = make ~emitted:0 ?window ~lambda mode
let window t = t.window
let lambda t = t.lambda
let mode t = t.mode

let m_heap_pushes = Util.Telemetry.counter "online.heap_pushes"
let m_heap_pops = Util.Telemetry.counter "online.heap_pops"
let m_compactions = Util.Telemetry.counter "online.compactions"
let m_deadline_queue = Util.Telemetry.gauge "online.deadline_queue"
let m_pending_labels = Util.Telemetry.gauge "online.pending_labels"

(* Every pending-list mutation funnels through here so the live-label
   counter (the overload signal — deterministic across checkpoint/restore,
   unlike the heap length, which depends on stale-entry history) cannot
   drift. *)
let set_pending t st p =
  (match (st.pending, p) with
  | [], _ :: _ -> t.live_pending <- t.live_pending + 1
  | _ :: _, [] -> t.live_pending <- t.live_pending - 1
  | [], [] | _ :: _, _ :: _ -> ());
  Util.Telemetry.set m_pending_labels t.live_pending;
  st.pending <- p

let state t a =
  try Hashtbl.find t.states a
  with Not_found ->
    let st = { pending = []; oldest = None; last_out = None; deadline = infinity } in
    Hashtbl.add t.states a st;
    st

let tau_of t =
  match t.mode with
  | Delayed { tau; _ } -> tau
  | Instant -> 0.

let plus_of t =
  match t.mode with
  | Delayed { plus; _ } -> plus
  | Instant -> false

(* The heap may hold stale entries (superseded deadlines are only discarded
   at fire time). Two measures keep it from growing O(total arrivals): a
   recomputed deadline equal to the current one is not re-pushed (the
   Î»-dominated regime recomputes the same [t_oldest + Î»] on every arrival),
   and when stale entries still outnumber live labels 2:1 the heap is
   rebuilt with exactly one entry per pending label. *)
let compact_slack = 8

let compact t =
  Util.Telemetry.incr m_compactions;
  let live =
    Hashtbl.fold
      (fun a st acc -> if st.deadline < infinity then (st.deadline, a) :: acc else acc)
      t.states []
  in
  t.heap <- Util.Heap.of_list heap_cmp live;
  Util.Telemetry.set m_deadline_queue (Util.Heap.length t.heap)

let push_deadline t a d =
  Util.Telemetry.incr m_heap_pushes;
  Util.Heap.push t.heap (d, a);
  Util.Telemetry.set m_deadline_queue (Util.Heap.length t.heap);
  if Util.Heap.length t.heap > (2 * Hashtbl.length t.states) + compact_slack then
    compact t

let refresh_deadline t a =
  let st = state t a in
  let d =
    match (st.pending, st.oldest) with
    | [], _ | _, None -> infinity
    | latest :: _, Some oldest ->
      Float.min (latest.Post.value +. tau_of t) (Coverage.reach t.lam oldest a)
  in
  if d <> st.deadline then begin
    st.deadline <- d;
    if d < infinity then push_deadline t a d
  end

let record_emission t out post emit_time =
  Util.Int_set.add t.emitted post.Post.id;
  out := { post; emit_time } :: !out

(* The two coverage primitives the engine shares with the window mirror.

   [label_reach t a] is the right extent of the latest output serving
   label [a] (neg_infinity before any): the old-arrival coverage test
   [value <= reach last_out] in one float read. When a window is attached
   the float lives in its per-label reach table — assigned, never maxed,
   because a deadline firing can legitimately replace a further-reaching
   last_out with a nearer one (plus-mode credit first, fire later), and
   the engine's semantics track the {e latest} output, not the furthest.

   [set_last_out t a st p] is the single place a label's last output is
   assigned, keeping the mirror exact at every site (fire, plus-credit,
   instant arrival, degradation, import). *)
let label_reach t a =
  match t.window with
  | Some w -> Window_index.emit_reach w a
  | None -> (
    match (state t a).last_out with
    | Some z -> Coverage.reach t.lam z a
    | None -> neg_infinity)

let set_last_out t a st p =
  st.last_out <- Some p;
  match t.window with
  | Some w -> Window_index.set_emit_reach w a (Coverage.reach t.lam p a)
  | None -> ()

(* StreamScan+: an emitted post covers the pending pairs of all its labels
   and becomes their latest output. *)
let credit_emission t post =
  Label_set.iter
    (fun b ->
      let st = state t b in
      (match st.last_out with
      | Some current when current.Post.value >= post.Post.value -> ()
      | Some _ | None -> set_last_out t b st post);
      let remaining =
        List.filter
          (fun p -> not (Coverage.covers_label t.lam ~by:post b p))
          st.pending
      in
      if List.compare_lengths remaining st.pending <> 0 then begin
        set_pending t st remaining;
        (match List.rev remaining with
        | [] -> st.oldest <- None
        | oldest :: _ -> st.oldest <- Some oldest);
        refresh_deadline t b
      end)
    post.Post.labels

let fire t out (d, a) =
  let st = state t a in
  if st.pending <> [] && st.deadline = d then begin
    match st.pending with
    | [] -> assert false
    | latest :: _ ->
      record_emission t out latest d;
      set_last_out t a st latest;
      set_pending t st [];
      st.oldest <- None;
      st.deadline <- infinity;
      if plus_of t then credit_emission t latest
  end

(* [inclusive] controls the boundary: [push] fires strictly-due deadlines
   (d < until) so an arrival at exactly its label's deadline is processed
   before the deadline fires — the arriving post may itself cover the
   pending pairs; [finish] drains inclusively. *)
let fire_due t out ~until ~inclusive =
  let due d = if inclusive then d <= until else d < until in
  let rec loop () =
    match Util.Heap.peek t.heap with
    | Some (d, _) when due d -> begin
      let entry = Util.Heap.pop_exn t.heap in
      Util.Telemetry.incr m_heap_pops;
      Util.Telemetry.set m_deadline_queue (Util.Heap.length t.heap);
      fire t out entry;
      loop ()
    end
    | Some _ | None -> ()
  in
  loop ()

let sort_emissions emissions =
  List.sort
    (fun a b ->
      let c = Float.compare a.emit_time b.emit_time in
      if c <> 0 then c else Int.compare a.post.Post.id b.post.Post.id)
    emissions

(* A degraded label behaves like [Instant]: an uncovered arrival on it is
   emitted on the spot (so its queue can never rebuild) and the emission is
   credited to every label the post carries, pruning pending work. *)
let arrival_delayed t out post =
  let degraded_uncovered =
    Hashtbl.length t.degraded > 0
    && Label_set.exists
         (fun a -> Hashtbl.mem t.degraded a && post.Post.value > label_reach t a)
         post.Post.labels
  in
  if degraded_uncovered then begin
    record_emission t out post post.Post.value;
    credit_emission t post
  end
  else
    Label_set.iter
      (fun a ->
        let st = state t a in
        let covered = post.Post.value <= label_reach t a in
        if not covered then begin
          if st.pending = [] then st.oldest <- Some post;
          set_pending t st (post :: st.pending);
          refresh_deadline t a
        end)
      post.Post.labels

(* [post.value <= label_reach t a], for the instant arrival: a bool
   result and no float argument, so nothing is boxed across the call.
   The windowless reach is [Coverage.reach] under [Fixed lambda],
   written out. *)
let reached t a post =
  match t.window with
  | Some w -> post.Post.value <= Window_index.emit_reach w a
  | None -> (
    match (state t a).last_out with
    | Some z -> post.Post.value <= z.Post.value +. t.lambda
    | None -> post.Post.value <= neg_infinity)

(* The instant arrival runs once per post per profile, so it walks the
   label words inline, as Window_index.push does: a covered arrival
   allocates nothing. Labels are tested in ascending order and the walk
   stops at the first uncovered one, as [Label_set.for_all] did. *)
let arrival_instant t post =
  let labels = post.Post.labels in
  let words = Label_set.word_count labels in
  let covered = ref true and wi = ref 0 in
  while !covered && !wi < words do
    let word = Label_set.word labels !wi and bit = ref 0 in
    while !covered && !bit < Label_set.bits_per_word do
      if word land (1 lsl !bit) <> 0 then
        covered := reached t ((!wi * Label_set.bits_per_word) + !bit) post;
      incr bit
    done;
    incr wi
  done;
  if !covered then []
  else begin
    Util.Int_set.add t.emitted post.Post.id;
    for wi = 0 to words - 1 do
      let word = Label_set.word labels wi in
      for bit = 0 to Label_set.bits_per_word - 1 do
        if word land (1 lsl bit) <> 0 then begin
          let a = (wi * Label_set.bits_per_word) + bit in
          set_last_out t a (state t a) post
        end
      done
    done;
    [ { post; emit_time = post.Post.value } ]
  end

(* [out] is newest first; most pushes emit nothing or one post. *)
let in_emit_order = function
  | ([] | [ _ ]) as out -> out
  | out -> sort_emissions (List.rev out)

let push t post =
  if t.arrived && post.Post.value < t.arrival.last then
    invalid_arg
      (Printf.sprintf "Online.push: post %d at %g arrives before %g" post.Post.id
         post.Post.value t.arrival.last);
  (match t.window with
  | Some w ->
    (* Mirror the stream into the window. Expiry horizon: anything older
       than prev − τ − λ can no longer be emitted (deadlines due before
       this arrival fired during the previous push, and a deadline is at
       least its post's value) nor λ-cover a pending or future post, so
       expiring against the PREVIOUS arrival keeps every post this push's
       own firings may emit. Out-of-order mirror pushes (a clamping
       frontend can release equal-value posts with non-ascending ids) are
       skipped: coverage reads go through the reach table, which is
       maintained independently of post storage. *)
    if t.arrived then
      Window_index.expire_before w ~time:(t.arrival.last -. tau_of t -. t.lambda);
    if Float.is_finite post.Post.value then ignore (Window_index.try_push w post)
  | None -> ());
  t.arrival.last <- post.Post.value;
  t.arrived <- true;
  match t.mode with
  | Delayed _ ->
    let out = ref [] in
    fire_due t out ~until:post.Post.value ~inclusive:false;
    arrival_delayed t out post;
    in_emit_order !out
  | Instant -> arrival_instant t post

let finish t =
  let out = ref [] in
  fire_due t out ~until:infinity ~inclusive:true;
  in_emit_order !out

let emitted_count t = Util.Int_set.length t.emitted

let deadline_queue_length t = Util.Heap.length t.heap

let pending_labels t = t.live_pending

let last_arrival t = if t.arrived then Some t.arrival.last else None

let is_degraded t a = Hashtbl.mem t.degraded a

let degraded_count t = Hashtbl.length t.degraded

(* Demote the label with the earliest live deadline to instant handling.
   Its latest pending post is emitted right away — legal, because [now] can
   only precede the deadline (all strictly-due deadlines fired during the
   last push) and the latest pending post λ-covers every pending post of
   its label (latest − oldest ≤ λ whenever the window is still open). The
   rest of the pending list is shed: covered by the early emission, never
   emitted itself. *)
let degrade_earliest t ~now =
  let rec pick () =
    match Util.Heap.pop t.heap with
    | None -> None
    | Some (d, a) ->
      Util.Telemetry.incr m_heap_pops;
      Util.Telemetry.set m_deadline_queue (Util.Heap.length t.heap);
      let st = state t a in
      if st.pending <> [] && st.deadline = d then Some (a, st) else pick ()
  in
  match pick () with
  | None -> None
  | Some (a, st) ->
    Hashtbl.replace t.degraded a ();
    (match st.pending with
    | [] -> assert false
    | latest :: rest ->
      let when_ = Float.max latest.Post.value (Float.min now st.deadline) in
      let out = ref [] in
      record_emission t out latest when_;
      set_last_out t a st latest;
      set_pending t st [];
      st.oldest <- None;
      st.deadline <- infinity;
      credit_emission t latest;
      Some (a, List.length rest, sort_emissions (List.rev !out)))

let with_emitted t f = Util.Int_set.with_sorted t.emitted f
let with_degraded t f = Util.Array_util.with_sorted_keys t.degraded f

(* The labels [export] lists: those with a pending post or an output. *)
let exported st = st.pending <> [] || st.last_out <> None

let with_labels t f =
  Util.Array_util.with_scratch (Hashtbl.length t.states) (fun labels ->
      let n =
        Hashtbl.fold
          (fun a st i -> if exported st then (labels.(i) <- a; i + 1) else i)
          t.states 0
      in
      Util.Array_util.sort_ints_prefix labels n;
      f labels n)

let label_pending t a = (Hashtbl.find t.states a).pending
let label_last_out t a = (Hashtbl.find t.states a).last_out

let export t =
  let snap_labels =
    Hashtbl.fold
      (fun a st acc ->
        if exported st then
          { snap_label = a; snap_pending = st.pending; snap_last_out = st.last_out }
          :: acc
        else acc)
      t.states []
    |> List.sort (fun x y -> Int.compare x.snap_label y.snap_label)
  in
  {
    snap_lambda = t.lambda;
    snap_mode = t.mode;
    snap_last_time = last_arrival t;
    snap_emitted = with_emitted t (fun ids n -> Array.sub ids 0 n);
    snap_degraded = Util.Array_util.sorted_keys t.degraded;
    snap_labels;
  }

let import ?window s =
  List.iter
    (fun ls ->
      let rec descending = function
        | p :: (q :: _ as rest) ->
          if p.Post.value < q.Post.value then
            invalid_arg "Online.import: pending list not newest-first";
          descending rest
        | [ _ ] | [] -> ()
      in
      descending ls.snap_pending;
      (match (ls.snap_pending, s.snap_last_time) with
      | p :: _, Some last when p.Post.value > last ->
        invalid_arg "Online.import: pending post newer than last arrival"
      | (p :: _), None -> ignore p; invalid_arg "Online.import: pending posts without arrivals"
      | _ -> ()))
    s.snap_labels;
  let t =
    make ~emitted:(Array.length s.snap_emitted) ?window ~lambda:s.snap_lambda s.snap_mode
  in
  Array.iter (Util.Int_set.add t.emitted) s.snap_emitted;
  Array.iter (fun a -> Hashtbl.replace t.degraded a ()) s.snap_degraded;
  List.iter
    (fun ls ->
      let st = state t ls.snap_label in
      (* Re-derive the window's reach table from the snapshot: the window
         section of a checkpoint stores posts only. *)
      (match ls.snap_last_out with
      | Some p -> set_last_out t ls.snap_label st p
      | None -> st.last_out <- None);
      set_pending t st ls.snap_pending;
      (match List.rev ls.snap_pending with
      | [] -> st.oldest <- None
      | oldest :: _ -> st.oldest <- Some oldest);
      refresh_deadline t ls.snap_label)
    s.snap_labels;
  (match s.snap_last_time with
  | Some v ->
    t.arrival.last <- v;
    t.arrived <- true
  | None -> ());
  t
