(* Sliding-window coverage geometry. See window_index.mli for the contract
   and DESIGN.md §18 for the invariants.

   House rules (enforced by test/test_lint.ml): no polymorphic compare and
   no boxed-option traffic anywhere in this file — absent values are -1 /
   neg_infinity sentinels, and every hot accessor works on immediates, so
   steady-state maintenance and solving allocate nothing on the OCaml heap.

   Addressing: three absolute, monotone sequence-number spaces.
     - post seq [g]: the g-th successful push, forever. Live range
       [phead, ptotal); storage index g - pbase.
     - slot seq [u]: one (post, label) incidence. A post's slots are
       contiguous, [poff(g), poff(g+1)); storage index u - sbase.
     - per-label member seq [m]: position of a slot in its label's
       arrival list LP(a). Live range [lhead.(a), ltotal.(a)); storage
       index m - lbase.(a).
   Stored cross-references are sequence numbers, never storage indices, so
   compaction (blit live region to the front, advance the base) invalidates
   nothing. Compaction fires when dead > live + 64, which bounds the blit
   by the work already paid for and makes expiry amortized O(1) per slot.

   Ordering invariants that make the window a Pair_index in motion:
     - arrivals are strictly increasing by Post.compare_by_value, so
       window order = value order = Instance order of the same posts;
     - each label list is in arrival = value order, so member seqs are
       the label's LP positions shifted by lhead;
     - posts expire in arrival order, so the oldest live post's slots are
       the fronts of their label lists.

   Coverage cursors: slot u over label [a] covers the members of LP(a)
   whose value falls in [slo(u), shi(u)] — a contiguous member range
   because the list is value-sorted.
     - scf(u): the first member with value >= slo(u), computed by binary
       search at push time. Later arrivals only append values >= every
       present value, so scf is final; reads clamp it to lhead.(a).
     - scl(u): the last member known to have value <= shi(u). Initialized
       to u's own member and advanced lazily (advance at every solve);
       each advance step is paid once per (slot, later-arrival) incidence,
       so maintenance is amortized O(1).
   Both endpoints are inclusive, matching Instance.posts_in_range
   (lower_bound lo .. upper_bound hi - 1) and hence Pair_index. *)

module Flat = Util.Flat
module A1 = Bigarray.Array1

let c_pushes = Util.Telemetry.counter "window.pushes"
let c_expirations = Util.Telemetry.counter "window.expirations"
let c_solves = Util.Telemetry.counter "window.solves"
let c_compactions = Util.Telemetry.counter "window.compactions"
let g_posts = Util.Telemetry.gauge "window.posts"
let g_pairs = Util.Telemetry.gauge "window.pairs"

type t = {
  lam : Coverage.lambda;
  (* posts, indexed g - pbase *)
  mutable phead : int;  (* expired count = seq of the window head *)
  mutable ptotal : int;  (* seq of the next push *)
  mutable pbase : int;  (* seq of storage index 0 *)
  pval : Flat.Floats.t;
  pids : Flat.Ints.t;
  poff : Flat.Ints.t;  (* slot-seq boundaries; entry g holds poff(g),
                          length live + 1 *)
  (* ordering guard: last admitted (value, id); survives full expiry *)
  mutable lastv : float;
  mutable lastid : int;
  mutable guarded : bool;
  (* slot arena, indexed u - sbase *)
  mutable sbase : int;
  mutable stotal : int;
  slab : Flat.Ints.t;  (* label of the slot *)
  spost : Flat.Ints.t;  (* post seq of the slot *)
  smem : Flat.Ints.t;  (* member seq in LP(label) *)
  slo : Flat.Floats.t;  (* coverage interval, inclusive *)
  shi : Flat.Floats.t;
  scf : Flat.Ints.t;  (* first covered member seq (final; clamp on read) *)
  scl : Flat.Ints.t;  (* last covered member seq found so far (lazy) *)
  smk : Flat.Flags.t;  (* persistent mark: pair served by an emission *)
  (* per-label arrival lists, dense over label ids *)
  mutable nlabels : int;
  mutable lhead : int array;
  mutable ltotal : int array;
  mutable lbase : int array;
  mutable lbuf : Flat.Ints.t array;  (* member seq -> slot seq *)
  mutable lvalv : Flat.Floats.t array;  (* member seq -> value *)
  mutable lreach : float array;  (* emission reach per label *)
}

let create lam =
  {
    lam;
    phead = 0;
    ptotal = 0;
    pbase = 0;
    pval = Flat.Floats.create ();
    pids = Flat.Ints.create ();
    poff = (let f = Flat.Ints.create () in Flat.Ints.push f 0; f);
    lastv = neg_infinity;
    lastid = min_int;
    guarded = false;
    sbase = 0;
    stotal = 0;
    slab = Flat.Ints.create ();
    spost = Flat.Ints.create ();
    smem = Flat.Ints.create ();
    slo = Flat.Floats.create ();
    shi = Flat.Floats.create ();
    scf = Flat.Ints.create ();
    scl = Flat.Ints.create ();
    smk = Flat.Flags.create ();
    nlabels = 0;
    lhead = [||];
    ltotal = [||];
    lbase = [||];
    lbuf = [||];
    lvalv = [||];
    lreach = [||];
  }

let lambda t = t.lam
let size t = t.ptotal - t.phead
let expired t = t.phead
let total t = t.ptotal

(* first live slot seq = the window head's first slot *)
let shead t = Flat.Ints.get t.poff (t.phead - t.pbase)
let live_pairs t = t.stotal - shead t

let ensure_label t a =
  if a < 0 then invalid_arg "Window_index: negative label";
  if a >= t.nlabels then begin
    let cap = Array.length t.lhead in
    if a >= cap then begin
      let cap' = ref (max 4 cap) in
      while a >= !cap' do
        cap' := !cap' * 2
      done;
      let cap' = !cap' in
      let grow_int src = Array.append src (Array.make (cap' - cap) 0) in
      t.lhead <- grow_int t.lhead;
      t.ltotal <- grow_int t.ltotal;
      t.lbase <- grow_int t.lbase;
      t.lreach <- Array.append t.lreach (Array.make (cap' - cap) neg_infinity);
      t.lbuf <-
        Array.append t.lbuf (Array.init (cap' - cap) (fun _ -> Flat.Ints.create ()));
      t.lvalv <-
        Array.append t.lvalv
          (Array.init (cap' - cap) (fun _ -> Flat.Floats.create ()))
    end;
    (* ids between the old count and [a] become valid empty labels *)
    t.nlabels <- a + 1
  end

(* true when (v, id) is strictly newer than the last admitted arrival,
   i.e. Post.compare_by_value would order it after *)
let newer t v id =
  (not t.guarded) || v > t.lastv || (v = t.lastv && id > t.lastid)

let push_exn t (p : Post.t) =
  let v = p.Post.value and id = p.Post.id in
  let g = t.ptotal in
  Flat.Floats.push t.pval v;
  Flat.Ints.push t.pids id;
  (* Walk the label bitset word by word rather than through
     Label_set.iter: a closure per arrival is heap traffic, and this loop
     is the steady-state hot path (the maintenance gate in bench/exp_window
     holds it to zero bytes per post). *)
  let labels = p.Post.labels in
  for wi = 0 to Label_set.word_count labels - 1 do
    let word = Label_set.word labels wi in
    let first = wi * Label_set.bits_per_word in
    for bit = 0 to Label_set.bits_per_word - 1 do
      if word land (1 lsl bit) <> 0 then begin
        let a = first + bit in
        ensure_label t a;
        let r = Coverage.radius t.lam p a in
        (* endpoint sanity without materializing the interval: a negative
           radius puts v outside [v - r, v + r]; NaN passes, as before *)
        if v -. r > v || v +. r < v then
          invalid_arg "Window_index.push: negative coverage radius";
        let lo = v -. r in
        let u = t.stotal in
        let m = t.ltotal.(a) in
        let lb = t.lbase.(a) in
        let vals = t.lvalv.(a) in
        (* first member with value >= lo; the list is value-sorted and only
           ever appends values >= the current maximum, so this is final.
           Reads go through the raw backing store: A1.unsafe_get is a
           compiler primitive, so the probed floats are never boxed even
           when -opaque blocks cross-module inlining (dev profile). *)
        let cf =
          let vbuf = Flat.Floats.unsafe_buf vals in
          let l = ref t.lhead.(a) and h = ref m in
          while !l < !h do
            let mid = (!l + !h) / 2 in
            if A1.unsafe_get vbuf (mid - lb) >= lo then h := mid
            else l := mid + 1
          done;
          !l
        in
        Flat.Ints.push t.lbuf.(a) u;
        (* float appends as ensure + raw store, for the same reason: the
           outlined Floats.push would box its float argument. The backing
           store is re-fetched after ensure — growth swaps it. *)
        let nv = Flat.Floats.length vals in
        Flat.Floats.ensure vals (nv + 1);
        A1.unsafe_set (Flat.Floats.unsafe_buf vals) nv v;
        t.ltotal.(a) <- m + 1;
        Flat.Ints.push t.slab a;
        Flat.Ints.push t.spost g;
        Flat.Ints.push t.smem m;
        let ns = Flat.Floats.length t.slo in
        Flat.Floats.ensure t.slo (ns + 1);
        A1.unsafe_set (Flat.Floats.unsafe_buf t.slo) ns lo;
        Flat.Floats.ensure t.shi (ns + 1);
        A1.unsafe_set (Flat.Floats.unsafe_buf t.shi) ns (v +. r);
        Flat.Ints.push t.scf cf;
        Flat.Ints.push t.scl m;
        (* born covered when a prior emission's reach extends past v *)
        Flat.Flags.push t.smk (v <= t.lreach.(a));
        t.stotal <- u + 1
      end
    done
  done;
  Flat.Ints.push t.poff t.stotal;
  t.ptotal <- g + 1;
  t.lastv <- v;
  t.lastid <- id;
  t.guarded <- true;
  Util.Telemetry.incr c_pushes;
  Util.Telemetry.set g_posts (size t);
  Util.Telemetry.set g_pairs (live_pairs t)

let try_push t (p : Post.t) =
  let v = p.Post.value in
  if not (Float.is_finite v) then
    invalid_arg "Window_index.push: non-finite value";
  if newer t v p.Post.id then begin
    push_exn t p;
    true
  end
  else false

let push t p =
  if not (try_push t p) then
    invalid_arg "Window_index.push: arrivals must be strictly increasing"

let maybe_compact_label t a =
  let dead = t.lhead.(a) - t.lbase.(a) in
  let live = t.ltotal.(a) - t.lhead.(a) in
  if dead > live + 64 then begin
    Flat.Ints.drop_front t.lbuf.(a) dead;
    Flat.Floats.drop_front t.lvalv.(a) dead;
    t.lbase.(a) <- t.lhead.(a);
    Util.Telemetry.incr c_compactions
  end

let maybe_compact_posts t =
  let dead = t.phead - t.pbase in
  let live = t.ptotal - t.phead in
  if dead > live + 64 then begin
    (* arena first: its dead prefix ends at the head post's first slot *)
    let sh = shead t in
    let sdead = sh - t.sbase in
    if sdead > 0 then begin
      Flat.Ints.drop_front t.slab sdead;
      Flat.Ints.drop_front t.spost sdead;
      Flat.Ints.drop_front t.smem sdead;
      Flat.Floats.drop_front t.slo sdead;
      Flat.Floats.drop_front t.shi sdead;
      Flat.Ints.drop_front t.scf sdead;
      Flat.Ints.drop_front t.scl sdead;
      Flat.Flags.drop_front t.smk sdead;
      t.sbase <- sh
    end;
    Flat.Floats.drop_front t.pval dead;
    Flat.Ints.drop_front t.pids dead;
    Flat.Ints.drop_front t.poff dead;
    t.pbase <- t.phead;
    Util.Telemetry.incr c_compactions
  end

let expire_one t =
  let g = t.phead in
  let s0 = Flat.Ints.get t.poff (g - t.pbase) in
  let s1 = Flat.Ints.get t.poff (g + 1 - t.pbase) in
  for u = s0 to s1 - 1 do
    let a = Flat.Ints.get_u t.slab (u - t.sbase) in
    (* posts expire in arrival order, so this slot is the front member *)
    assert (Flat.Ints.get t.lbuf.(a) (t.lhead.(a) - t.lbase.(a)) = u);
    t.lhead.(a) <- t.lhead.(a) + 1;
    maybe_compact_label t a
  done;
  t.phead <- g + 1;
  Util.Telemetry.incr c_expirations;
  maybe_compact_posts t

let expire_posts t k =
  if k < 0 || k > size t then invalid_arg "Window_index.expire_posts: bad count";
  for _ = 1 to k do
    expire_one t
  done;
  Util.Telemetry.set g_posts (size t);
  Util.Telemetry.set g_pairs (live_pairs t)

let expire_before t ~time =
  (* raw reads and a plain int watermark: the outlined Floats.get would
     box its float return, and a [ref] cell is a heap word — this is the
     per-tick maintenance path the zero-alloc gate measures. The index is
     in range whenever phead < ptotal, so the unchecked read is safe. *)
  let before = t.phead in
  while
    t.phead < t.ptotal
    && A1.unsafe_get (Flat.Floats.unsafe_buf t.pval) (t.phead - t.pbase) < time
  do
    expire_one t
  done;
  if t.phead > before then begin
    Util.Telemetry.set g_posts (size t);
    Util.Telemetry.set g_pairs (live_pairs t)
  end

let check_wpos t name w =
  if w < 0 || w >= size t then
    invalid_arg (Printf.sprintf "Window_index.%s: position out of window" name)

let value t w =
  check_wpos t "value" w;
  Flat.Floats.get_u t.pval (t.phead + w - t.pbase)

let id t w =
  check_wpos t "id" w;
  Flat.Ints.get_u t.pids (t.phead + w - t.pbase)

(* The bits are split here, where the float is an unboxed local: passed
   to a writer in another module it would be boxed first. *)
let add_value_bits b t w =
  check_wpos t "add_value_bits" w;
  let bits = Int64.bits_of_float (A1.unsafe_get (Flat.Floats.unsafe_buf t.pval) (t.phead + w - t.pbase)) in
  Util.Fs.add_hex_halves b
    (Int64.to_int (Int64.shift_right_logical bits 32))
    (Int64.to_int bits land 0xffff_ffff)

let iter_labels t w f =
  check_wpos t "iter_labels" w;
  let g = t.phead + w in
  for u = Flat.Ints.get t.poff (g - t.pbase) to Flat.Ints.get t.poff (g + 1 - t.pbase) - 1 do
    f (Flat.Ints.get_u t.slab (u - t.sbase))
  done

let post t w =
  check_wpos t "post" w;
  let labels = ref Label_set.empty in
  iter_labels t w (fun a -> labels := Label_set.add a !labels);
  Post.make ~id:(id t w) ~value:(value t w) ~labels:!labels

let find_position t (p : Post.t) =
  let v = p.Post.value and pid = p.Post.id in
  let lo = ref t.phead and hi = ref t.ptotal in
  let found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let mv = Flat.Floats.get_u t.pval (mid - t.pbase) in
    let mi = Flat.Ints.get_u t.pids (mid - t.pbase) in
    let c = if mv < v then -1 else if mv > v then 1 else Int.compare mi pid in
    if c = 0 then begin
      found := mid;
      lo := !hi
    end
    else if c < 0 then lo := mid + 1
    else hi := mid
  done;
  !found

let to_instance t =
  let n = size t in
  let rec collect w acc = if w < 0 then acc else collect (w - 1) (post t w :: acc) in
  Instance.create (collect (n - 1) [])

(* -------------------------------------------------------------------- *)
(* Cover check                                                          *)

let rec check_cover_range n = function
  | [] -> ()
  | w :: rest ->
    if w < 0 || w >= n then
      invalid_arg "Window_index.is_cover: position out of window";
    check_cover_range n rest

let rec ascending = function
  | w :: (w' :: _ as rest) -> w <= w' && ascending rest
  | [] | [ _ ] -> true

(* the suffix of an ascending cover from its first position >= [w] *)
let rec skip_below w = function
  | c :: rest when c < w -> skip_below w rest
  | cover -> cover

(* One forward sweep per label over its live members in value order,
   walking the ascending cover in lockstep to spot the chosen members.
   Nothing here reads the scf/scl cursors the solver covers with: the
   check judges a cover against the raw values and intervals.
     - [left] is what the chosen members so far reach to the right:
       under a fixed λ the value of the last one (a member at x is
       covered iff x - left <= λ; rounding is monotone, so the nearest
       chosen member is the best one), under a per-post λ the largest
       shi. nan means "none yet", and compares false with everything.
     - [pend] is the smallest member value not covered from the left
       (valid while [pending]). A later chosen member z covers it iff
       z - pend <= λ (fixed) or slo(z) <= pend (per-post), and then
       covers every larger pending value too, so one value per label
       suffices. Under a fixed λ a miss is final — later members sit
       further right. *)
let is_cover t cover =
  check_cover_range (size t) cover;
  let cover = if ascending cover then cover else List.sort_uniq Int.compare cover in
  let fixed =
    match t.lam with
    | Coverage.Fixed _ -> true
    | Coverage.Per_post_label _ -> false
  in
  let lam =
    match t.lam with
    | Coverage.Fixed l -> l
    | Coverage.Per_post_label _ -> nan
  in
  let slo = Flat.Floats.unsafe_buf t.slo and shi = Flat.Floats.unsafe_buf t.shi in
  let ok = ref true and a = ref 0 in
  while !ok && !a < t.nlabels do
    let h = t.lhead.(!a) and tot = t.ltotal.(!a) and lb = t.lbase.(!a) in
    let buf = t.lbuf.(!a) and vals = Flat.Floats.unsafe_buf t.lvalv.(!a) in
    let rest = ref cover in
    let left = ref (if fixed then nan else neg_infinity) in
    let pending = ref false and pend = ref 0. in
    let m = ref h in
    while !ok && !m < tot do
      let ui = Flat.Ints.get_u buf (!m - lb) - t.sbase in
      let wpos = Flat.Ints.get_u t.spost ui - t.phead in
      let x = A1.unsafe_get vals (!m - lb) in
      rest := skip_below wpos !rest;
      let chosen = match !rest with c :: _ -> c = wpos | [] -> false in
      if chosen then
        if fixed then begin
          if !pending then
            if x -. !pend <= lam then pending := false else ok := false;
          left := x
        end
        else begin
          if !pending && A1.unsafe_get slo ui <= !pend then pending := false;
          let hi = A1.unsafe_get shi ui in
          if hi > !left then left := hi
        end;
      let covered = if fixed then x -. !left <= lam else x <= !left in
      if (not covered) && not !pending then begin
        pending := true;
        pend := x
      end;
      incr m
    done;
    if !pending then ok := false;
    incr a
  done;
  !ok

let fully_covered t w =
  check_wpos t "fully_covered" w;
  let g = t.phead + w in
  let s0 = Flat.Ints.get t.poff (g - t.pbase) in
  let s1 = Flat.Ints.get t.poff (g + 1 - t.pbase) in
  let ok = ref true in
  for u = s0 to s1 - 1 do
    if not (Flat.Flags.get_u t.smk (u - t.sbase)) then ok := false
  done;
  !ok

let emit_reach t a =
  if a < 0 then invalid_arg "Window_index.emit_reach: negative label";
  if a < t.nlabels then t.lreach.(a) else neg_infinity

let set_emit_reach t a r =
  ensure_label t a;
  t.lreach.(a) <- r

let note_emission t (p : Post.t) =
  Label_set.iter
    (fun a ->
      ensure_label t a;
      let r = Coverage.reach t.lam p a in
      if r > t.lreach.(a) then t.lreach.(a) <- r)
    p.Post.labels

(* -------------------------------------------------------------------- *)
(* Solving                                                              *)

(* Advance scl(u) while the next member's value stays inside shi(u).
   Each successful step is paid once per (slot, later member) incidence
   over the slot's whole lifetime, so the amortized cost is O(1). *)
let advance_scl t ui =
  let a = Flat.Ints.get_u t.slab ui in
  let hi = Flat.Floats.get_u t.shi ui in
  let tot = t.ltotal.(a) in
  let lb = t.lbase.(a) in
  let vals = t.lvalv.(a) in
  let m = ref (Flat.Ints.get_u t.scl ui) in
  while !m + 1 < tot && Flat.Floats.get_u vals (!m + 1 - lb) <= hi do
    incr m
  done;
  Flat.Ints.set_u t.scl ui !m

type solver = {
  mutable base : int array;  (* per-label live pair-id bases, len nlabels+1 *)
  mpos : Flat.Ints.t;  (* pair id -> window position of its post *)
  pslot : Flat.Ints.t;  (* pair id -> slot seq *)
  covlo : Flat.Ints.t;  (* fixed λ: coverers of the pair as a pair-id range *)
  covhi : Flat.Ints.t;
  roff : Flat.Ints.t;  (* per-post λ: CSR offsets, len npairs+1 *)
  rows : Flat.Ints.t;  (* CSR coverer window positions *)
  fillc : Flat.Ints.t;  (* CSR fill cursors *)
  bits : Flat.Bits.t;  (* pristine-mode covered scratch *)
  mutable n : int;
  mutable npairs : int;
  mutable fixed : bool;
  mutable marked : bool;
}

let solver () =
  {
    base = [||];
    mpos = Flat.Ints.create ();
    pslot = Flat.Ints.create ();
    covlo = Flat.Ints.create ();
    covhi = Flat.Ints.create ();
    roff = Flat.Ints.create ();
    rows = Flat.Ints.create ();
    fillc = Flat.Ints.create ();
    bits = Flat.Bits.create ();
    n = 0;
    npairs = 0;
    fixed = true;
    marked = false;
  }

let begin_solve t sv ~marked ~gain =
  let n = size t in
  if Array.length gain < n then
    invalid_arg "Window_index.begin_solve: gain too small";
  Util.Telemetry.incr c_solves;
  sv.marked <- marked;
  sv.fixed <-
    (match t.lam with
    | Coverage.Fixed _ -> true
    | Coverage.Per_post_label _ -> false);
  (* label-major pair numbering: base.(a) is label a's first live pair id,
     mirroring Pair_index.label_base over the same live posts *)
  if Array.length sv.base < t.nlabels + 1 then
    sv.base <- Array.make (max 4 (2 * (t.nlabels + 1))) 0;
  let np = ref 0 in
  for a = 0 to t.nlabels - 1 do
    sv.base.(a) <- !np;
    np := !np + (t.ltotal.(a) - t.lhead.(a))
  done;
  sv.base.(t.nlabels) <- !np;
  let np = !np in
  sv.n <- n;
  sv.npairs <- np;
  Flat.Ints.ensure sv.mpos np;
  Flat.Ints.ensure sv.pslot np;
  if sv.fixed then begin
    Flat.Ints.ensure sv.covlo np;
    Flat.Ints.ensure sv.covhi np
  end
  else begin
    Flat.Ints.clear sv.roff;
    Flat.Ints.ensure sv.roff (np + 1);
    Flat.Ints.fill sv.roff 0
  end;
  for w = 0 to n - 1 do
    gain.(w) <- 0
  done;
  (* one pass over live slots in pair-id order: advance cursors, fill the
     pair tables, accumulate gains, and (per-post λ) count coverers via a
     difference trick over member offsets *)
  for a = 0 to t.nlabels - 1 do
    let b = sv.base.(a) in
    let h = t.lhead.(a) in
    let tot = t.ltotal.(a) in
    let lb = t.lbase.(a) in
    let live = tot - h in
    let buf = t.lbuf.(a) in
    for m = h to tot - 1 do
      let u = Flat.Ints.get_u buf (m - lb) in
      let ui = u - t.sbase in
      advance_scl t ui;
      let wpos = Flat.Ints.get_u t.spost ui - t.phead in
      let pid = b + (m - h) in
      Flat.Ints.set_u sv.mpos pid wpos;
      Flat.Ints.set_u sv.pslot pid u;
      let f = Flat.Ints.get_u t.scf ui in
      let rlo = if f < h then 0 else f - h in
      let rhi = Flat.Ints.get_u t.scl ui - h in
      if sv.fixed then begin
        Flat.Ints.set_u sv.covlo pid (b + rlo);
        Flat.Ints.set_u sv.covhi pid (b + rhi)
      end
      else begin
        Flat.Ints.set_u sv.roff (b + 1 + rlo)
          (Flat.Ints.get_u sv.roff (b + 1 + rlo) + 1);
        if rhi + 1 < live then
          Flat.Ints.set_u sv.roff (b + 1 + rhi + 1)
            (Flat.Ints.get_u sv.roff (b + 1 + rhi + 1) - 1)
      end;
      if marked then begin
        let acc = ref 0 in
        for r = rlo to rhi do
          let u' = Flat.Ints.get_u buf (h + r - lb) in
          if not (Flat.Flags.get_u t.smk (u' - t.sbase)) then incr acc
        done;
        gain.(wpos) <- gain.(wpos) + !acc
      end
      else gain.(wpos) <- gain.(wpos) + (rhi - rlo + 1)
    done
  done;
  if not sv.fixed then begin
    (* difference cells -> per-pair coverer counts -> global CSR prefix *)
    let totalrows = ref 0 in
    for a = 0 to t.nlabels - 1 do
      let b = sv.base.(a) in
      let live = sv.base.(a + 1) - b in
      let run = ref 0 in
      for r = 0 to live - 1 do
        run := !run + Flat.Ints.get_u sv.roff (b + 1 + r);
        totalrows := !totalrows + !run;
        Flat.Ints.set_u sv.roff (b + 1 + r) !totalrows
      done
    done;
    Flat.Ints.clear sv.rows;
    Flat.Ints.ensure sv.rows !totalrows;
    Flat.Ints.clear sv.fillc;
    Flat.Ints.ensure sv.fillc np;
    for pid = 0 to np - 1 do
      Flat.Ints.set_u sv.fillc pid (Flat.Ints.get_u sv.roff pid)
    done;
    (* fill pass: each covering slot drops its window position into every
       covered pair's row *)
    for a = 0 to t.nlabels - 1 do
      let b = sv.base.(a) in
      let h = t.lhead.(a) in
      let tot = t.ltotal.(a) in
      let lb = t.lbase.(a) in
      let buf = t.lbuf.(a) in
      for m = h to tot - 1 do
        let u = Flat.Ints.get_u buf (m - lb) in
        let ui = u - t.sbase in
        let wpos = Flat.Ints.get_u t.spost ui - t.phead in
        let f = Flat.Ints.get_u t.scf ui in
        let rlo = if f < h then 0 else f - h in
        let rhi = Flat.Ints.get_u t.scl ui - h in
        for r = rlo to rhi do
          let pid = b + r in
          let c = Flat.Ints.get_u sv.fillc pid in
          Flat.Ints.set_u sv.rows c wpos;
          Flat.Ints.set_u sv.fillc pid (c + 1)
        done
      done
    done
  end;
  if not marked then Flat.Bits.reset sv.bits np

let apply_pick t sv ~gain ~dirty ~touched w =
  let n = sv.n in
  if w < 0 || w >= n then invalid_arg "Window_index.apply_pick: bad position";
  if Array.length gain < n || Bytes.length dirty < n || Array.length touched < n
  then invalid_arg "Window_index.apply_pick: scratch too small";
  let g = t.phead + w in
  let s0 = Flat.Ints.get t.poff (g - t.pbase) in
  let s1 = Flat.Ints.get t.poff (g + 1 - t.pbase) in
  let cnt = ref 0 in
  for u = s0 to s1 - 1 do
    let ui = u - t.sbase in
    let a = Flat.Ints.get_u t.slab ui in
    let b = sv.base.(a) in
    let h = t.lhead.(a) in
    let f = Flat.Ints.get_u t.scf ui in
    let plo = b + if f < h then 0 else f - h in
    let phi = b + (Flat.Ints.get_u t.scl ui - h) in
    for pid = plo to phi do
      let fresh =
        if sv.marked then begin
          let si = Flat.Ints.get_u sv.pslot pid - t.sbase in
          if Flat.Flags.get_u t.smk si then false
          else begin
            Flat.Flags.set_u t.smk si true;
            true
          end
        end
        else if Flat.Bits.get sv.bits pid then false
        else begin
          Flat.Bits.set sv.bits pid;
          true
        end
      in
      if fresh then
        if sv.fixed then begin
          let ql = Flat.Ints.get_u sv.covhi pid in
          for q = Flat.Ints.get_u sv.covlo pid to ql do
            let w' = Flat.Ints.get_u sv.mpos q in
            Array.unsafe_set gain w' (Array.unsafe_get gain w' - 1);
            if Bytes.unsafe_get dirty w' = '\000' then begin
              Bytes.unsafe_set dirty w' '\001';
              Array.unsafe_set touched !cnt w';
              incr cnt
            end
          done
        end
        else begin
          let ql = Flat.Ints.get_u sv.roff (pid + 1) - 1 in
          for q = Flat.Ints.get_u sv.roff pid to ql do
            let w' = Flat.Ints.get_u sv.rows q in
            Array.unsafe_set gain w' (Array.unsafe_get gain w' - 1);
            if Bytes.unsafe_get dirty w' = '\000' then begin
              Bytes.unsafe_set dirty w' '\001';
              Array.unsafe_set touched !cnt w';
              incr cnt
            end
          done
        end
    done
  done;
  (* hand dirty back all-zero, as Pair_index.apply_pick does *)
  let cnt = !cnt in
  for i = 0 to cnt - 1 do
    Bytes.unsafe_set dirty (Array.unsafe_get touched i) '\000'
  done;
  cnt

(* -------------------------------------------------------------------- *)
(* Checkpointing                                                        *)

type snapshot = {
  snap_expired : int;
  snap_posts : Post.t list;
  snap_guard_value : float;
  snap_guard_id : int;
  snap_guarded : bool;
}

let export t =
  let n = size t in
  let rec collect w acc = if w < 0 then acc else collect (w - 1) (post t w :: acc) in
  {
    snap_expired = t.phead;
    snap_posts = collect (n - 1) [];
    snap_guard_value = t.lastv;
    snap_guard_id = t.lastid;
    snap_guarded = t.guarded;
  }

let guard t = (t.guarded, t.lastv, t.lastid)

let import lam s =
  if s.snap_expired < 0 then
    invalid_arg "Window_index.import: negative expired count";
  let t = create lam in
  (* resume arrival numbering where the exporter stood: the storage is
     empty, so all three post counters sit at the expired count and the
     initial poff boundary (slot seq 0) belongs to the head post *)
  t.phead <- s.snap_expired;
  t.ptotal <- s.snap_expired;
  t.pbase <- s.snap_expired;
  List.iter (fun p -> push t p) s.snap_posts;
  t.lastv <- s.snap_guard_value;
  t.lastid <- s.snap_guard_id;
  t.guarded <- s.snap_guarded;
  t
