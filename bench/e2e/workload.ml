(* The four workloads and the request script each one generates from a
   seed. A script is the exact sequence of requests both the loopback run
   and the in-process reference execute, so every phase is count-bounded:
   a faster build does the same work, not more of it.

   A run lasts [seconds]: the open-loop phase sends
   [open_rate * seconds * 3/4] FEEDs at [open_rate] per second, and the
   capacity phase sends [capacity_rate * seconds / 4] FEEDs as fast as
   the daemon answers. The length and both rates are frozen constants,
   so every run of a workload sends the same requests: per-request cost
   grows with run length (profiles checkpoint their whole history), so a
   run length that could differ between two builds would make their
   numbers incomparable. The capacity rate is about what the workload
   sustained when the benchmark was defined. The open
   rate keeps TICKs busy for about a fifth of the open phase: a FEED that
   arrives during a TICK waits for it, and near half busy the FEED median
   would flip between the waited and the unwaited mode from run to run. *)

module Post = Mqdp.Post
module Label_set = Mqdp.Label_set
module Rng = Util.Rng

type kind =
  | Add of int  (** profile index *)
  | Feed of Post.t
  | Tick
  | Report of int
  | Query of int
  | Checkpoint
  | Drain
  | Stats

type phase = Setup | Prebuild | Open | Capacity | Verify

type req = {
  index : int;  (** position in the script *)
  conn : int;  (** 0 = ingest connection, 1 = reader connection *)
  seq : int;  (** the connection's session sequence number *)
  kind : kind;
  cmd : string;  (** the wire line without its sequence number *)
  wire : string;  (** "<seq> <cmd>\n", rendered once *)
  phase : phase;
  due : float;  (** open loop: seconds after the phase starts *)
  gate : int;
      (** capacity phase, reader: ingest requests of the phase that must
          have been sent before this one may go *)
}

type profile = {
  name : string;
  lambda : float;
  mode : Mqdp.Online.mode;
  subscription : Label_set.t;
  window : bool;
}

type spec = {
  name : string;
  pingpong : bool;  (** one connection through Mqdp.Client, one request in flight *)
  durable : bool;  (** --state-dir, HELLO sessions, CHECKPOINT every 2000 *)
  open_rate : float;  (** open-loop FEEDs per second *)
  capacity_rate : float;  (** FEEDs per second that size the capacity phase *)
  make_profiles : Rng.t -> profile array;
  make_labels : Rng.t -> int list;
  stream_rate : float;  (** posts per stream-second (a power of two: exact values) *)
  read : int -> kind;  (** the reader's j-th request *)
}

type t = {
  spec : spec;
  seed : int;
  profiles : profile array;
  script : req array;
  by_label : int array array;  (** label -> subscribed profile indices, name order *)
}

(* BENCHMARK.json's run_seconds; main.exe refuses to run when they differ. *)
let seconds = 10
let tick_every = 32
let read_every = 16
let checkpoint_every = 2000
let prebuild_feeds = 2000

let distinct rng ~k ~n =
  List.sort_uniq Int.compare
    (Rng.sample_without_replacement rng ~k (Array.init n (fun i -> i)))

let between rng lo hi = lo + Rng.int rng (hi - lo + 1)

let profile ~name ~lambda ~mode ~labels ~window =
  { name; lambda; mode; subscription = Label_set.of_list labels; window }

let delayed tau = Mqdp.Online.Delayed { tau; plus = false }

let fanout =
  {
    name = "fanout";
    pingpong = false;
    durable = false;
    open_rate = 480.;
    capacity_rate = 1400.;
    make_profiles =
      (fun rng ->
        Array.init 2000 (fun i ->
            profile ~name:(Printf.sprintf "f%04d" i) ~lambda:10. ~mode:Mqdp.Online.Instant
              ~labels:(distinct rng ~k:(between rng 2 4) ~n:100)
              ~window:false));
    make_labels = (fun rng -> distinct rng ~k:(between rng 1 2) ~n:100);
    stream_rate = 16.;
    read = (fun j -> Report (j mod 2000));
  }

let window_query =
  {
    name = "window-query";
    pingpong = false;
    durable = false;
    open_rate = 700.;
    capacity_rate = 2000.;
    make_profiles =
      (fun rng ->
        Array.init 128 (fun i ->
            profile ~name:(Printf.sprintf "w%03d" i) ~lambda:30. ~mode:(delayed 30.)
              ~labels:(distinct rng ~k:2 ~n:32) ~window:true));
    make_labels = (fun rng -> distinct rng ~k:(between rng 1 3) ~n:32);
    stream_rate = 128.;
    read = (fun j -> if j mod 4 = 3 then Report (j / 4 mod 128) else Query (j mod 128));
  }

(* Every tenth durable profile keeps a window; the reader's QUERYs go to
   those 52, its REPORTs rotate over all 512. *)
let durable =
  {
    name = "durable";
    pingpong = false;
    durable = true;
    open_rate = 800.;
    capacity_rate = 2400.;
    make_profiles =
      (fun rng ->
        Array.init 512 (fun i ->
            profile ~name:(Printf.sprintf "d%03d" i) ~lambda:30.
              ~mode:(if i mod 2 = 0 then delayed 30. else Mqdp.Online.Instant)
              ~labels:(distinct rng ~k:2 ~n:64) ~window:(i mod 10 = 0)));
    make_labels = (fun rng -> distinct rng ~k:(between rng 1 2) ~n:64);
    stream_rate = 64.;
    read = (fun j -> if j mod 4 = 3 then Query (10 * (j / 4 mod 52)) else Report (j mod 512));
  }

let pingpong =
  {
    name = "pingpong";
    pingpong = true;
    durable = false;
    open_rate = 11000.;
    capacity_rate = 22000.;
    make_profiles =
      (fun _ ->
        Array.init 64 (fun i ->
            profile ~name:(Printf.sprintf "p%02d" i) ~lambda:10. ~mode:Mqdp.Online.Instant
              ~labels:[ i ] ~window:false));
    make_labels = (fun rng -> [ Rng.int rng 64 ]);
    stream_rate = 128.;
    read = (fun j -> Report (j mod 64));
  }

let all = [ fanout; window_query; durable; pingpong ]
let find name = List.find_opt (fun s -> String.equal s.name name) all

let labels_field ls = String.concat "," (List.map string_of_int (Label_set.to_list ls))

let mode_field = function
  | Mqdp.Online.Instant -> "instant"
  | Mqdp.Online.Delayed { tau; plus } ->
    Printf.sprintf "%s:%g" (if plus then "delayed+" else "delayed") tau

let render profiles = function
  | Add i ->
    let (p : profile) = profiles.(i) in
    Printf.sprintf "ADD %s %g %s %s%s" p.name p.lambda (mode_field p.mode)
      (labels_field p.subscription)
      (if p.window then "" else " nowindow")
  | Feed post ->
    Printf.sprintf "FEED %d %.17g %s" post.Post.id post.Post.value
      (labels_field post.Post.labels)
  | Tick -> "TICK"
  | Report i -> "REPORT " ^ (profiles.(i) : profile).name
  | Query i -> "QUERY " ^ (profiles.(i) : profile).name
  | Checkpoint -> "CHECKPOINT"
  | Drain -> "DRAIN"
  | Stats -> "STATS"

let verb = function
  | Add _ -> "ADD"
  | Feed _ -> "FEED"
  | Tick -> "TICK"
  | Report _ -> "REPORT"
  | Query _ -> "QUERY"
  | Checkpoint -> "CHECKPOINT"
  | Drain -> "DRAIN"
  | Stats -> "STATS"

let open_feeds spec = int_of_float (Float.round (spec.open_rate *. float_of_int seconds *. 0.75))

let capacity_feeds spec =
  int_of_float (Float.round (spec.capacity_rate *. float_of_int seconds *. 0.25))

let build spec ~seed =
  let rng = Rng.create seed in
  let profiles = spec.make_profiles (Rng.split rng) in
  let post_rng = Rng.split rng in
  let reader = if spec.pingpong then 0 else 1 in
  let script = ref [] and count = ref 0 in
  let seqs = [| 0; 0 |] in
  let emit ~conn ~phase ?(due = 0.) ?(gate = 0) kind =
    seqs.(conn) <- seqs.(conn) + 1;
    let cmd = render profiles kind in
    script :=
      {
        index = !count;
        conn;
        seq = seqs.(conn);
        kind;
        cmd;
        wire = Printf.sprintf "%d %s\n" seqs.(conn) cmd;
        phase;
        due;
        gate;
      }
      :: !script;
    incr count
  in
  Array.iteri (fun i _ -> emit ~conn:0 ~phase:Setup (Add i)) profiles;
  let feed_id = ref 0 and reads = ref 0 in
  (* One phase of [n] FEEDs: a TICK after every 32nd, a reader request
     after every 16th, and (durable) a CHECKPOINT after every 2000 ingest
     requests. Companions share their FEED's due time. *)
  let feeds ~phase ~n ~due_of =
    let ingest = ref 0 in
    let ingest_emit ~due kind =
      emit ~conn:0 ~phase ~due kind;
      incr ingest;
      if spec.durable && phase <> Prebuild && !ingest mod checkpoint_every = 0 then begin
        emit ~conn:0 ~phase ~due Checkpoint;
        incr ingest
      end
    in
    for k = 1 to n do
      incr feed_id;
      let post =
        Post.make ~id:!feed_id
          ~value:(float_of_int !feed_id /. spec.stream_rate)
          ~labels:(Label_set.of_list (spec.make_labels post_rng))
      in
      let due = due_of k in
      ingest_emit ~due (Feed post);
      if k mod tick_every = 0 then ingest_emit ~due Tick;
      if phase <> Prebuild && k mod read_every = 0 then begin
        emit ~conn:reader ~phase ~due ~gate:!ingest (spec.read !reads);
        incr reads
      end
    done
  in
  if spec.durable then begin
    emit ~conn:0 ~phase:Setup Checkpoint;
    feeds ~phase:Prebuild ~n:prebuild_feeds ~due_of:(fun _ -> 0.)
  end;
  feeds ~phase:Open ~n:(open_feeds spec) ~due_of:(fun k -> float_of_int (k - 1) /. spec.open_rate);
  feeds ~phase:Capacity ~n:(capacity_feeds spec) ~due_of:(fun _ -> 0.);
  emit ~conn:0 ~phase:Verify Tick;
  emit ~conn:0 ~phase:Verify Drain;
  Array.iteri (fun i _ -> emit ~conn:0 ~phase:Verify (Report i)) profiles;
  emit ~conn:0 ~phase:Verify Stats;
  let script = Array.of_list (List.rev !script) in
  let by_label =
    let max_label =
      Array.fold_left
        (fun acc p -> max acc (Label_set.max_label p.subscription))
        0 profiles
    in
    let lists = Array.make (max_label + 1) [] in
    for i = Array.length profiles - 1 downto 0 do
      Label_set.iter (fun l -> lists.(l) <- i :: lists.(l)) profiles.(i).subscription
    done;
    Array.map Array.of_list lists
  in
  { spec; seed; profiles; script; by_label }

let line r = String.sub r.wire 0 (String.length r.wire - 1)
let measured r = match r.phase with Open | Capacity -> true | Setup | Prebuild | Verify -> false
let phase_reqs t phase = List.filter (fun r -> r.phase = phase) (Array.to_list t.script)

(* The profiles a post reaches and what each receives: Serve's fan-out
   (label index, deduplicated, name order) with the post projected onto
   the profile's subscription. *)
let deliveries t ~stamp ~mark (post : Post.t) =
  let hits = ref [] in
  Label_set.iter
    (fun l ->
      if l < Array.length t.by_label then
        Array.iter
          (fun i ->
            if stamp.(i) <> mark then begin
              stamp.(i) <- mark;
              hits := i :: !hits
            end)
          t.by_label.(l))
    post.Post.labels;
  List.sort Int.compare !hits
  |> List.map (fun i ->
         ( i,
           Post.make ~id:post.Post.id ~value:post.Post.value
             ~labels:(Label_set.inter post.Post.labels t.profiles.(i).subscription) ))
