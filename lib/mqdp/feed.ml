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
  buffer : Post.t Util.Heap.t;  (* staged posts, min by (value, id) *)
  seen : (int, unit) Hashtbl.t;  (* ids ever admitted *)
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

let make cfg engine =
  {
    cfg;
    engine;
    buffer = Util.Heap.create Post.compare_by_value;
    seen = Hashtbl.create 256;
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
let buffered t = Util.Heap.length t.buffer
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

let rec release_over t limit acc =
  if Util.Heap.length t.buffer <= limit then acc
  else
    match Util.Heap.pop t.buffer with
    | None -> acc
    | Some p -> release_over t limit (acc @ release t p)

let drain_over t limit =
  let acc = release_over t limit [] in
  Util.Telemetry.set m_buffer_depth (Util.Heap.length t.buffer);
  shed_overload t acc

type outcome = { admitted : Post.t option; emissions : Online.emission list }

(* Every dropped post gets this one record: a drop allocates nothing. *)
let dropped = { admitted = None; emissions = [] }

(* The fault policies run in order — non-finite timestamp, duplicate id,
   late arrival — and a clamp hands the moved post on to the next check.
   Each stage is a plain call rather than a tuple of (post, value)
   threaded through one body, so an admitted post costs its outcome and
   nothing else here. *)
let rec push t post =
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
      dropped
    | Clamp ->
      let v = if t.watermark = neg_infinity then 0. else t.watermark in
      t.c_non_finite_clamped <- t.c_non_finite_clamped + 1;
      Util.Telemetry.incr m_non_finite_clamped;
      check_duplicate t { post with Post.value = v }

(* 2. Duplicates: an id the frontend already admitted. *)
and check_duplicate t post =
  if not (Hashtbl.mem t.seen post.Post.id) then check_late t post
  else
    match t.cfg.duplicate with
    | Raise -> reject t ~id:post.Post.id "duplicate id"
    | Drop | Clamp ->
      t.c_duplicate_dropped <- t.c_duplicate_dropped + 1;
      Util.Telemetry.incr m_duplicate_dropped;
      dropped

(* 3. Late: older than the release watermark — beyond what the reorder
   buffer can absorb. *)
and check_late t post =
  if post.Post.value >= t.watermark then admit t post
  else
    match t.cfg.late with
    | Raise ->
      reject t ~id:post.Post.id
        (Printf.sprintf "late arrival: %g behind watermark %g" post.Post.value t.watermark)
    | Drop ->
      t.c_late_dropped <- t.c_late_dropped + 1;
      Util.Telemetry.incr m_late_dropped;
      dropped
    | Clamp ->
      t.c_late_clamped <- t.c_late_clamped + 1;
      Util.Telemetry.incr m_late_clamped;
      admit t { post with Post.value = t.watermark }

and admit t post =
  Hashtbl.replace t.seen post.Post.id ();
  t.c_accepted <- t.c_accepted + 1;
  Util.Telemetry.incr m_accepted;
  if post.Post.value < t.high then begin
    t.c_reordered <- t.c_reordered + 1;
    Util.Telemetry.incr m_reordered
  end
  else t.high <- post.Post.value;
  Util.Heap.push t.buffer post;
  Util.Telemetry.set m_buffer_depth (Util.Heap.length t.buffer);
  let emissions = drain_over t t.cfg.reorder_window in
  { admitted = Some post; emissions }

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

(* Written token by token into the seal buffer, one image line per
   source line: no line is formatted into an intermediate string, and the
   window's posts are read straight out of its storage rather than
   exported as a list. *)
let checkpoint t =
  Util.Fs.seal ~magic ~version @@ fun b ->
  let str s = Buffer.add_string b s
  and int n = Util.Fs.add_int b n
  and float f = Util.Fs.add_float_bits b f
  and sp () = Buffer.add_char b ' '
  and nl () = Buffer.add_char b '\n' in
  let post_line p = str "p "; add_post b p; nl () in
  (* "<key> <n> <id> ... <id>": an empty list keeps the space after 0 *)
  let ints key ids =
    str key; sp (); int (Array.length ids); sp ();
    Array.iteri (fun i id -> if i > 0 then sp (); int id) ids;
    nl ()
  in
  let policy p = sp (); str (policy_name p) in
  let c = t.cfg in
  str "config "; int c.reorder_window; policy c.late; policy c.duplicate; policy c.non_finite; sp ();
  (match c.overload_budget with None -> str "none" | Some n -> int n);
  nl ();
  str "counters";
  List.iter (fun n -> sp (); int n)
    [ t.c_accepted; t.c_released; t.c_reordered; t.c_late_dropped; t.c_late_clamped;
      t.c_duplicate_dropped; t.c_non_finite_dropped; t.c_non_finite_clamped; t.c_rejected;
      t.c_shed ];
  nl ();
  str "watermark "; float t.watermark; sp (); float t.high; nl ();
  ints "seen" (Util.Array_util.sorted_keys t.seen);
  let staged = Util.Heap.to_list t.buffer |> List.sort Post.compare_by_value in
  str "buffer "; int (List.length staged); nl ();
  List.iter post_line staged;
  let s = Online.export t.engine in
  str "engine "; float s.Online.snap_lambda;
  (match s.Online.snap_mode with
  | Online.Instant -> str " instant"
  | Online.Delayed { tau; plus } -> str " delayed "; float tau; sp (); int (Bool.to_int plus));
  nl ();
  str "last "; (match s.Online.snap_last_time with None -> str "none" | Some v -> float v); nl ();
  ints "emitted" s.Online.snap_emitted;
  ints "degraded" s.Online.snap_degraded;
  str "labels "; int (List.length s.Online.snap_labels); nl ();
  List.iter
    (fun ls ->
      str "label "; int ls.Online.snap_label; sp (); int (List.length ls.Online.snap_pending); nl ();
      str "last "; (match ls.Online.snap_last_out with None -> str "none" | Some p -> add_post b p); nl ();
      List.iter post_line ls.Online.snap_pending)
    s.Online.snap_labels;
  match Online.window t.engine with
  | None -> str "window none\n"
  | Some w ->
    let guarded, guard_value, guard_id = Window_index.guard w in
    let n = Window_index.size w in
    str "window "; int (Window_index.expired w); sp (); int n; sp (); int (Bool.to_int guarded); sp ();
    float guard_value; sp (); int guard_id; nl ();
    (* a post's labels, comma-separated after the first written since [start] *)
    let start = ref 0 in
    let label a = if Buffer.length b > !start then Buffer.add_char b ','; int a in
    for i = 0 to n - 1 do
      str "p "; int (Window_index.id w i); sp (); float (Window_index.value w i); sp ();
      start := Buffer.length b;
      Window_index.iter_labels w i label;
      if Buffer.length b = !start then Buffer.add_char b '-';
      nl ()
    done

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
  let t = make cfg engine in
  t.watermark <- watermark;
  t.high <- high;
  Array.iter (fun id -> Hashtbl.replace t.seen id ()) seen;
  List.iter (fun p -> Util.Heap.push t.buffer p) staged;
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
