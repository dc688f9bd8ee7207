(* Hardened ingestion frontend: reorder buffer + fault policies + overload
   degradation + checkpoint/restore. See feed.mli for the contract.

   Determinism is the load-bearing property: every decision depends only
   on (config, admitted stream so far), and the checkpoint captures that
   state completely, so crash → restore → replay is bit-identical to an
   uninterrupted run. Nothing here may consult wall-clock time or global
   randomness. *)

type policy =
  | Drop
  | Clamp
  | Raise

type config = {
  reorder_window : int;
  late : policy;
  duplicate : policy;
  non_finite : policy;
  overload_budget : int option;
}

let default_config =
  {
    reorder_window = 64;
    late = Drop;
    duplicate = Drop;
    non_finite = Drop;
    overload_budget = None;
  }

type counters = {
  accepted : int;
  released : int;
  reordered : int;
  late_dropped : int;
  late_clamped : int;
  duplicate_dropped : int;
  non_finite_dropped : int;
  non_finite_clamped : int;
  rejected : int;
  degraded_labels : int;
  shed : int;
}

type t = {
  cfg : config;
  engine : Online.t;
  (* The reorder buffer: staged posts ascending by (value, id) in a ring
     of [Array.length ring] slots (a power of two, or 0), the smallest at
     [head]. *)
  mutable ring : Post.t array;
  mutable head : int;
  mutable staged : int;
  seen : Util.Int_set.t;  (* ids ever admitted *)
  mutable watermark : float;  (* newest value released to the engine *)
  mutable high : float;  (* newest value ever admitted (reorder signal) *)
  mutable c_accepted : int;
  mutable c_released : int;
  mutable c_reordered : int;
  mutable c_late_dropped : int;
  mutable c_late_clamped : int;
  mutable c_duplicate_dropped : int;
  mutable c_non_finite_dropped : int;
  mutable c_non_finite_clamped : int;
  mutable c_rejected : int;
  mutable c_shed : int;
}

exception Rejected of { id : int; what : string }

(* Registry mirrors of the per-feed counters. These count events observed
   by this process: restoring a checkpoint does NOT replay its counter
   block into the registry (that would double-count across a crash), so
   the registry view is "work done here", the checkpoint view is "work
   done ever". *)
let m_accepted = Util.Telemetry.counter "feed.accepted"
let m_released = Util.Telemetry.counter "feed.released"
let m_reordered = Util.Telemetry.counter "feed.reordered"
let m_late_dropped = Util.Telemetry.counter "feed.late_dropped"
let m_late_clamped = Util.Telemetry.counter "feed.late_clamped"
let m_duplicate_dropped = Util.Telemetry.counter "feed.duplicate_dropped"
let m_non_finite_dropped = Util.Telemetry.counter "feed.non_finite_dropped"
let m_non_finite_clamped = Util.Telemetry.counter "feed.non_finite_clamped"
let m_rejected = Util.Telemetry.counter "feed.rejected"
let m_shed = Util.Telemetry.counter "feed.shed"
let m_buffer_depth = Util.Telemetry.gauge "feed.buffer_depth"

let validate_config cfg =
  if cfg.reorder_window < 0 then invalid_arg "Feed.create: negative reorder_window";
  match cfg.overload_budget with
  | Some b when b < 1 -> invalid_arg "Feed.create: overload_budget < 1"
  | Some _ | None -> ()

let make ?(seen = Util.Int_set.create 0) cfg engine =
  {
    cfg;
    engine;
    ring = [||];
    head = 0;
    staged = 0;
    seen;
    watermark = neg_infinity;
    high = neg_infinity;
    c_accepted = 0;
    c_released = 0;
    c_reordered = 0;
    c_late_dropped = 0;
    c_late_clamped = 0;
    c_duplicate_dropped = 0;
    c_non_finite_dropped = 0;
    c_non_finite_clamped = 0;
    c_rejected = 0;
    c_shed = 0;
  }

let create ?(config = default_config) ?(window = false) ~lambda mode =
  validate_config config;
  let w = if window then Some (Window_index.create (Coverage.Fixed lambda)) else None in
  make config (Online.create ?window:w ~lambda mode)

let window t = Online.window t.engine

let counters t =
  {
    accepted = t.c_accepted;
    released = t.c_released;
    reordered = t.c_reordered;
    late_dropped = t.c_late_dropped;
    late_clamped = t.c_late_clamped;
    duplicate_dropped = t.c_duplicate_dropped;
    non_finite_dropped = t.c_non_finite_dropped;
    non_finite_clamped = t.c_non_finite_clamped;
    rejected = t.c_rejected;
    degraded_labels = Online.degraded_count t.engine;
    shed = t.c_shed;
  }

let config t = t.cfg
let engine t = t.engine
let buffered t = t.staged
let watermark t = if t.watermark = neg_infinity then None else Some t.watermark

let reject t ~id what =
  t.c_rejected <- t.c_rejected + 1;
  Util.Telemetry.incr m_rejected;
  raise (Rejected { id; what })

(* Demote labels until the live deadline count fits the budget. The count,
   not the raw heap length, is the signal: it is identical before and
   after a restore, which the bit-identical replay guarantee needs. *)
let rec shed_overload t acc =
  match t.cfg.overload_budget with
  | None -> acc
  | Some budget ->
    if Online.pending_labels t.engine <= budget then acc
    else begin
      let now =
        match Online.last_arrival t.engine with
        | Some v -> v
        | None -> neg_infinity
      in
      match Online.degrade_earliest t.engine ~now with
      | None -> acc
      | Some (_, shed, es) ->
        t.c_shed <- t.c_shed + shed;
        Util.Telemetry.add m_shed shed;
        shed_overload t (acc @ es)
    end

let release t post =
  let es = Online.push t.engine post in
  t.watermark <- post.Post.value;
  t.c_released <- t.c_released + 1;
  Util.Telemetry.incr m_released;
  es

(* --- The reorder buffer. Kept sorted rather than heap-ordered: posts
   mostly arrive in time order, so staging one is a single write at the
   back, releasing is a read at the front, and a checkpoint writes the
   buffer in order with no sort. A reordered arrival shifts the later
   staged posts back one slot each, at most [reorder_window] of them. --- *)

(* What a vacated slot holds, so no released post stays reachable; also
   the fault policies' "no post" (see [triage]). *)
let vacant = { Post.id = 0; value = 0.; labels = Label_set.empty }

let staged_at t i = t.ring.((t.head + i) land (Array.length t.ring - 1))

let grow t =
  let ring = Array.make (max 8 (2 * Array.length t.ring)) vacant in
  for i = 0 to t.staged - 1 do
    ring.(i) <- staged_at t i
  done;
  t.ring <- ring;
  t.head <- 0

let stage t post =
  if t.staged = Array.length t.ring then grow t;
  let mask = Array.length t.ring - 1 in
  let i = ref t.staged in
  while !i > 0 && Post.compare_by_value t.ring.((t.head + !i - 1) land mask) post > 0 do
    t.ring.((t.head + !i) land mask) <- t.ring.((t.head + !i - 1) land mask);
    decr i
  done;
  t.ring.((t.head + !i) land mask) <- post;
  t.staged <- t.staged + 1

let unstage t =
  let post = t.ring.(t.head) in
  t.ring.(t.head) <- vacant;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.staged <- t.staged - 1;
  post

let rec release_over t limit acc =
  if t.staged <= limit then acc else release_over t limit (acc @ release t (unstage t))

let drain_over t limit =
  let acc = release_over t limit [] in
  Util.Telemetry.set m_buffer_depth t.staged;
  shed_overload t acc

(* The fault policies run in order — non-finite timestamp, duplicate id,
   late arrival — and a clamp hands the moved post on to the next check.
   Each stage returns the post to admit, or [vacant] for a drop, so the
   chain allocates nothing but a clamped copy. *)
let rec triage t post =
  let value = post.Post.value in
  (* 1. Non-finite timestamps (includes NaN smuggled past Post.make via a
     record update). *)
  if Float.is_finite value then check_duplicate t post
  else
    match t.cfg.non_finite with
    | Raise -> reject t ~id:post.Post.id (Printf.sprintf "non-finite timestamp %h" value)
    | Drop ->
      t.c_non_finite_dropped <- t.c_non_finite_dropped + 1;
      Util.Telemetry.incr m_non_finite_dropped;
      vacant
    | Clamp ->
      let v = if t.watermark = neg_infinity then 0. else t.watermark in
      t.c_non_finite_clamped <- t.c_non_finite_clamped + 1;
      Util.Telemetry.incr m_non_finite_clamped;
      check_duplicate t { post with Post.value = v }

(* 2. Duplicates: an id the frontend already admitted. *)
and check_duplicate t post =
  if not (Util.Int_set.mem t.seen post.Post.id) then check_late t post
  else
    match t.cfg.duplicate with
    | Raise -> reject t ~id:post.Post.id "duplicate id"
    | Drop | Clamp ->
      t.c_duplicate_dropped <- t.c_duplicate_dropped + 1;
      Util.Telemetry.incr m_duplicate_dropped;
      vacant

(* 3. Late: older than the release watermark — beyond what the reorder
   buffer can absorb. *)
and check_late t post =
  if post.Post.value >= t.watermark then post
  else
    match t.cfg.late with
    | Raise ->
      reject t ~id:post.Post.id
        (Printf.sprintf "late arrival: %g behind watermark %g" post.Post.value t.watermark)
    | Drop ->
      t.c_late_dropped <- t.c_late_dropped + 1;
      Util.Telemetry.incr m_late_dropped;
      vacant
    | Clamp ->
      t.c_late_clamped <- t.c_late_clamped + 1;
      Util.Telemetry.incr m_late_clamped;
      { post with Post.value = t.watermark }

let admit t post =
  Util.Int_set.add t.seen post.Post.id;
  t.c_accepted <- t.c_accepted + 1;
  Util.Telemetry.incr m_accepted;
  if post.Post.value < t.high then begin
    t.c_reordered <- t.c_reordered + 1;
    Util.Telemetry.incr m_reordered
  end
  else t.high <- post.Post.value;
  stage t post;
  Util.Telemetry.set m_buffer_depth t.staged;
  drain_over t t.cfg.reorder_window

let push_emissions t post =
  let post = triage t post in
  if post == vacant then [] else admit t post

type outcome = { admitted : Post.t option; emissions : Online.emission list }

(* Every dropped post gets this one record. *)
let dropped = { admitted = None; emissions = [] }

let push t post =
  let post = triage t post in
  if post == vacant then dropped else { admitted = Some post; emissions = admit t post }

let finish t =
  let es = drain_over t 0 in
  es @ Online.finish t.engine

(* ------------------------------------------------------------------ *)
(* Checkpoint codec: a sealed image (Util.Fs.seal) of line-oriented
   text, floats as IEEE bit patterns so round-trips are exact.         *)

let magic = "mqdp-feed-checkpoint"
let version = 2
let corrupt = Util.Fs.corrupt
let int_field = Util.Fs.int_field

(* --- field codec, shared with Profile's blob --- *)

let float_of_field s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits when String.length s = 16 -> Int64.float_of_bits bits
  | Some _ | None -> corrupt "bad float bit pattern %S" s

(* Word by word rather than through Label_set.iter, which would cost a
   closure per post. *)
let add_labels b ls =
  let first = ref true in
  for wi = 0 to Label_set.word_count ls - 1 do
    let word = Label_set.word ls wi in
    for bit = 0 to Label_set.bits_per_word - 1 do
      if word land (1 lsl bit) <> 0 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        Util.Fs.add_int b ((wi * Label_set.bits_per_word) + bit)
      end
    done
  done;
  if !first then Buffer.add_char b '-'

let labels_of_field s =
  if s = "-" then Label_set.empty
  else
    let labels = List.map (int_field "labels") (String.split_on_char ',' s) in
    if List.exists (fun a -> a < 0) labels then corrupt "negative label in post";
    Label_set.of_list labels

let add_post b p =
  Util.Fs.add_int b p.Post.id;
  Buffer.add_char b ' ';
  Util.Fs.add_float_bits b p.Post.value;
  Buffer.add_char b ' ';
  add_labels b p.Post.labels

(* A record, not [Post.make]: a post that was offered but not yet
   admitted may carry any timestamp, NaN included. *)
let post_of_fields = function
  | [ id; value; labels ] ->
    { Post.id = int_field "post id" id; value = float_of_field value; labels = labels_of_field labels }
  | fields -> corrupt "bad post line with %d fields" (List.length fields)

let policy_name = function Drop -> "drop" | Clamp -> "clamp" | Raise -> "raise"

let add_policy b p =
  Buffer.add_char b ' ';
  Buffer.add_string b (policy_name p)

let add_count b n =
  Buffer.add_char b ' ';
  Util.Fs.add_int b n

let add_post_line b p =
  Buffer.add_string b "p ";
  add_post b p;
  Buffer.add_char b '\n'

let rec add_post_lines b = function
  | [] -> ()
  | p :: rest ->
    add_post_line b p;
    add_post_lines b rest

(* "<key> <n> <id> ... <id>" from [ids.(0 .. n-1)]: an empty list keeps
   the space after 0. *)
let add_ids b key ids n =
  Buffer.add_string b key;
  add_count b n;
  Buffer.add_char b ' ';
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b ' ';
    Util.Fs.add_int b ids.(i)
  done;
  Buffer.add_char b '\n'

let add_label_state b engine a =
  let pending = Online.label_pending engine a in
  Buffer.add_string b "label ";
  Util.Fs.add_int b a;
  add_count b (List.length pending);
  Buffer.add_string b "\nlast ";
  (match Online.label_last_out engine a with
  | None -> Buffer.add_string b "none"
  | Some p -> add_post b p);
  Buffer.add_char b '\n';
  add_post_lines b pending

let add_label_states b engine labels n =
  Buffer.add_string b "labels ";
  Util.Fs.add_int b n;
  Buffer.add_char b '\n';
  for i = 0 to n - 1 do
    add_label_state b engine labels.(i)
  done

(* The window's posts, read straight out of its storage: ids and labels
   as ints, values through a writer that never boxes the float. *)
let add_window b w =
  let guarded, guard_value, guard_id = Window_index.guard w in
  let n = Window_index.size w in
  Buffer.add_string b "window ";
  Util.Fs.add_int b (Window_index.expired w);
  add_count b n;
  add_count b (Bool.to_int guarded);
  Buffer.add_char b ' ';
  Util.Fs.add_float_bits b guard_value;
  add_count b guard_id;
  Buffer.add_char b '\n';
  (* a post's labels, comma-separated after the first written since [start] *)
  let start = ref 0 in
  let label a =
    if Buffer.length b > !start then Buffer.add_char b ',';
    Util.Fs.add_int b a
  in
  for i = 0 to n - 1 do
    Buffer.add_string b "p ";
    Util.Fs.add_int b (Window_index.id w i);
    Buffer.add_char b ' ';
    Window_index.add_value_bits b w i;
    Buffer.add_char b ' ';
    start := Buffer.length b;
    Window_index.iter_labels w i label;
    if Buffer.length b = !start then Buffer.add_char b '-';
    Buffer.add_char b '\n'
  done

(* Written token by token into the seal buffer, allocating the image and
   a constant: the id lists are sorted in the per-domain int scratch
   ({!Util.Int_set.with_sorted}), the staged posts are already in
   order, the engine's state is read in place rather than exported, and
   the window is read out of its storage. *)
let checkpoint t =
  Util.Fs.seal ~magic ~version @@ fun b ->
  let c = t.cfg in
  Buffer.add_string b "config ";
  Util.Fs.add_int b c.reorder_window;
  add_policy b c.late;
  add_policy b c.duplicate;
  add_policy b c.non_finite;
  (match c.overload_budget with
  | None -> Buffer.add_string b " none"
  | Some n -> add_count b n);
  Buffer.add_string b "\ncounters";
  add_count b t.c_accepted;
  add_count b t.c_released;
  add_count b t.c_reordered;
  add_count b t.c_late_dropped;
  add_count b t.c_late_clamped;
  add_count b t.c_duplicate_dropped;
  add_count b t.c_non_finite_dropped;
  add_count b t.c_non_finite_clamped;
  add_count b t.c_rejected;
  add_count b t.c_shed;
  Buffer.add_string b "\nwatermark ";
  Util.Fs.add_float_bits b t.watermark;
  Buffer.add_char b ' ';
  Util.Fs.add_float_bits b t.high;
  Buffer.add_char b '\n';
  Util.Int_set.with_sorted t.seen (add_ids b "seen");
  Buffer.add_string b "buffer ";
  Util.Fs.add_int b t.staged;
  Buffer.add_char b '\n';
  for i = 0 to t.staged - 1 do
    add_post_line b (staged_at t i)
  done;
  let e = t.engine in
  Buffer.add_string b "engine ";
  Util.Fs.add_float_bits b (Online.lambda e);
  (match Online.mode e with
  | Online.Instant -> Buffer.add_string b " instant"
  | Online.Delayed { tau; plus } ->
    Buffer.add_string b " delayed ";
    Util.Fs.add_float_bits b tau;
    add_count b (Bool.to_int plus));
  Buffer.add_string b "\nlast ";
  (match Online.last_arrival e with
  | None -> Buffer.add_string b "none"
  | Some v -> Util.Fs.add_float_bits b v);
  Buffer.add_char b '\n';
  Online.with_emitted e (add_ids b "emitted");
  Online.with_degraded e (add_ids b "degraded");
  Online.with_labels e (add_label_states b e);
  match Online.window e with
  | None -> Buffer.add_string b "window none\n"
  | Some w -> add_window b w

(* --- parsing --- *)

let policy_of_name = function
  | "drop" -> Drop
  | "clamp" -> Clamp
  | "raise" -> Raise
  | s -> corrupt "unknown policy %S" s

let flag what = function "0" -> false | "1" -> true | s -> corrupt "bad %s flag %S" what s

(* Admitted posts always carry finite timestamps (the non-finite policy
   ran before admission), so anything else is corruption. *)
let admitted_post fields =
  let p = post_of_fields fields in
  if not (Float.is_finite p.Post.value) then corrupt "non-finite post timestamp";
  p

let restore text =
  let cur = Util.Fs.unseal ~magic ~version text in
  let expect = Util.Fs.expect cur in
  let count key = int_field key (Util.Fs.field cur key) in
  let posts n = List.init n (fun _ -> admitted_post (expect "p")) in
  (* "<key> <n> <id> ... <id>", exactly [n] ascending ids; the empty
     list is "<key> 0 ". Anything else would restore to a state whose
     checkpoint differs from the image it came from. *)
  let ints key =
    match expect key with
    | [ "0"; "" ] -> [||]
    | n :: ids ->
      let n = int_field key n in
      let ids = Array.of_list (List.map (int_field key) ids) in
      if n < 1 || Array.length ids <> n then
        corrupt "%s line declares %d ids and holds %d" key n (Array.length ids);
      for i = 1 to n - 1 do
        if ids.(i - 1) >= ids.(i) then corrupt "%s ids not strictly ascending" key
      done;
      ids
    | [] -> corrupt "bad %s line" key
  in
  let cfg =
    match expect "config" with
    | [ window; late; dup; nonfinite; budget ] ->
      {
        reorder_window = int_field "reorder_window" window;
        late = policy_of_name late;
        duplicate = policy_of_name dup;
        non_finite = policy_of_name nonfinite;
        overload_budget =
          (if budget = "none" then None else Some (int_field "overload_budget" budget));
      }
    | _ -> corrupt "bad config line"
  in
  (try validate_config cfg with Invalid_argument m -> corrupt "%s" m);
  let cnt =
    match List.map (int_field "counters") (expect "counters") with
    | [ _; _; _; _; _; _; _; _; _; _ ] as l -> Array.of_list l
    | _ -> corrupt "bad counters line"
  in
  let watermark, high =
    match expect "watermark" with
    | [ w; h ] -> (float_of_field w, float_of_field h)
    | _ -> corrupt "bad watermark line"
  in
  let seen = ints "seen" in
  let staged = posts (count "buffer") in
  let lambda, mode =
    match expect "engine" with
    | [ lambda; "instant" ] -> (float_of_field lambda, Online.Instant)
    | [ lambda; "delayed"; tau; plus ] ->
      (float_of_field lambda, Online.Delayed { tau = float_of_field tau; plus = flag "plus" plus })
    | _ -> corrupt "bad engine line"
  in
  let last_time =
    match expect "last" with
    | [ "none" ] -> None
    | [ v ] -> Some (float_of_field v)
    | _ -> corrupt "bad last line"
  in
  let emitted = ints "emitted" in
  let degraded = ints "degraded" in
  let snap_labels =
    List.init (count "labels") (fun _ ->
        let label, pending_count =
          match expect "label" with
          | [ a; k ] -> (int_field "label" a, int_field "pending count" k)
          | _ -> corrupt "bad label line"
        in
        let last_out =
          match expect "last" with
          | [ "none" ] -> None
          | fields -> Some (admitted_post fields)
        in
        { Online.snap_label = label; snap_pending = posts pending_count; snap_last_out = last_out })
  in
  let window =
    match expect "window" with
    | [ "none" ] -> None
    | [ expired; count; guarded; guardv; guardid ] ->
      let snap =
        {
          Window_index.snap_expired = int_field "window expired" expired;
          snap_posts = posts (int_field "window post count" count);
          snap_guard_value = float_of_field guardv;
          snap_guard_id = int_field "window guard id" guardid;
          snap_guarded = flag "window guard" guarded;
        }
      in
      (try Some (Window_index.import (Coverage.Fixed lambda) snap)
       with Invalid_argument m -> corrupt "%s" m)
    | _ -> corrupt "bad window line"
  in
  if not (Util.Fs.at_end cur) then corrupt "trailing garbage after window table";
  let snapshot =
    {
      Online.snap_lambda = lambda;
      snap_mode = mode;
      snap_last_time = last_time;
      snap_emitted = emitted;
      snap_degraded = degraded;
      snap_labels;
    }
  in
  let engine =
    try Online.import ?window snapshot with Invalid_argument m -> corrupt "%s" m
  in
  let t = make ~seen:(Util.Int_set.create (Array.length seen)) cfg engine in
  t.watermark <- watermark;
  t.high <- high;
  Array.iter (Util.Int_set.add t.seen) seen;
  List.iter (stage t) staged;
  t.c_accepted <- cnt.(0);
  t.c_released <- cnt.(1);
  t.c_reordered <- cnt.(2);
  t.c_late_dropped <- cnt.(3);
  t.c_late_clamped <- cnt.(4);
  t.c_duplicate_dropped <- cnt.(5);
  t.c_non_finite_dropped <- cnt.(6);
  t.c_non_finite_clamped <- cnt.(7);
  t.c_rejected <- cnt.(8);
  t.c_shed <- cnt.(9);
  t

(* Crash-safe: temp + fsync + rename, so a process killed mid-write can
   tear only the ignored temp sibling, never the checkpoint itself. *)
let save_checkpoint ~path t = Util.Fs.atomic_write ~path (checkpoint t)

let load_checkpoint path = restore (Util.Fs.read path)
